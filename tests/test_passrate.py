"""Pass-rate oracle tests: closed forms, finite differences, sampling."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverl import passrate
from curverl.kernels import accumulate_gradients, sample_responses
from curverl.passrate import (
    _SHIFT_BLOCK_VALUES,
    DifficultyProfile,
    PromptPopulation,
    _logit_offsets,
    make_population,
    population_digest,
    population_pass_rate_gradients,
    population_pass_rates,
    softmax,
)
from test_trainer import per_prompt_gradient


def prompt(logits, correct):
    """One-prompt population from a logits row and its correct indices."""
    logits = np.asarray(logits, dtype=float)
    mask = np.zeros(logits.shape, dtype=bool)
    mask[list(correct)] = True
    return PromptPopulation(logits[None, :], mask[None, :])


def exact_pass_rate(pr):
    return float(population_pass_rates(pr.logits, pr.correct)[0])


def exact_pass_rate_gradient(pr):
    return population_pass_rate_gradients(pr.logits, pr.correct)[0]


def score_vector(pr, response):
    """Gradient of log pi(response): the kernel's sum with one unit coefficient."""
    return accumulate_gradients(softmax(pr.logits), np.array([[response]]),
                                np.ones((1, 1), dtype=bool), np.ones((1, 2)))[0]


def sample_rewards(pr, n, rng):
    """n rewards of the prompt's policy, drawn by the one response sampler."""
    responses = sample_responses(np.cumsum(softmax(pr.logits), axis=1), rng.random((1, n)))
    return np.take_along_axis(pr.correct, responses, axis=1)[0], responses[0]


class TestExactPassRate:
    def test_symmetric_two_responses(self):
        assert exact_pass_rate(prompt([0.0, 0.0], {0})) == pytest.approx(0.5, abs=1e-15)

    def test_empty_correct_set_is_zero(self):
        assert exact_pass_rate(prompt([1.0, -2.0, 0.3], set())) == 0.0

    def test_log3_logit(self):
        # softmax evaluates to e^{ln 3} / (e^{ln 3} + 1) = 3/4
        assert exact_pass_rate(prompt([math.log(3.0), 0.0], {0})) == pytest.approx(0.75, abs=1e-12)

    def test_invalid_prompts_rejected(self):
        with pytest.raises(ValueError, match="prompt 0: need at least 2"):
            prompt([0.0], {0})
        with pytest.raises(ValueError, match="prompt 1: logits must be finite"):
            PromptPopulation([[0.0, 0.0], [0.0, np.inf]], np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            PromptPopulation([[0.0, 0.0]], [[True, False, True]])


class TestGradient:
    def test_symmetric_two_responses(self):
        grad = exact_pass_rate_gradient(prompt([0.0, 0.0], {0}))
        np.testing.assert_allclose(grad, [0.25, -0.25], atol=1e-15)

    def test_empty_correct_set_zero_gradient(self):
        grad = exact_pass_rate_gradient(prompt([1.0, 0.0, -1.0], set()))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_matches_central_finite_differences(self):
        # independent oracle: differentiate the exact pass rate numerically
        rng = np.random.default_rng(42)
        step = 1e-6
        for _ in range(100):
            m = int(rng.integers(2, 12))
            logits = rng.standard_normal(m) * 2.0
            n_correct = int(rng.integers(1, m))
            correct = frozenset(int(c) for c in rng.choice(m, size=n_correct, replace=False))
            pr = prompt(logits, correct)
            grad = exact_pass_rate_gradient(pr)
            for j in range(m):
                bump = np.zeros(m)
                bump[j] = step
                fd = (
                    exact_pass_rate(prompt(logits + bump, correct))
                    - exact_pass_rate(prompt(logits - bump, correct))
                ) / (2.0 * step)
                assert abs(grad[j] - fd) < 1e-7

    @given(
        logits=st.lists(st.floats(-20, 20), min_size=2, max_size=8),
        draw=st.integers(0, 255),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_hold_for_arbitrary_prompts(self, logits, draw):
        m = len(logits)
        correct = frozenset(j for j in range(m) if (draw >> j) & 1)
        pr = prompt(logits, correct)
        p = exact_pass_rate(pr)
        assert 0.0 <= p <= 1.0
        assert abs(exact_pass_rate_gradient(pr).sum()) < 1e-12


class TestScoreVector:
    def test_symmetric_example(self):
        np.testing.assert_allclose(score_vector(prompt([0.0, 0.0], {0}), 0), [0.5, -0.5],
                                   atol=1e-15)

    def test_components_sum_to_zero(self):
        pr = prompt([0.3, -1.2, 2.0, 0.0], {1})
        for y in range(4):
            assert abs(score_vector(pr, y).sum()) < 1e-12

    def test_out_of_range_response(self):
        pr = prompt([0.0, 0.0], {0})
        for bad in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                per_prompt_gradient(pr.logits[0], pr.correct[0], [0, bad], 1.0)

    def test_exact_summation_policy_gradient_identity(self):
        # sum_y pi(y) r(y) score(y) must equal the analytic pass-rate gradient
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            pr = prompt(rng.standard_normal(m), {int(c) for c in rng.choice(m, 2, replace=False)})
            probs = softmax(pr.logits[0])
            acc = np.zeros(m)
            for y in range(m):
                reward = 1.0 if pr.correct[0, y] else 0.0
                acc += probs[y] * reward * score_vector(pr, y)
            np.testing.assert_allclose(acc, exact_pass_rate_gradient(pr), atol=1e-12)

    def test_score_expectation_is_zero(self):
        pr = prompt([0.5, -0.5, 1.5], {0})
        probs = softmax(pr.logits[0])
        acc = sum(probs[y] * score_vector(pr, y) for y in range(3))
        np.testing.assert_allclose(acc, np.zeros(3), atol=1e-12)


class TestSampling:
    def test_full_correct_set_gives_all_ones(self):
        rewards, _ = sample_rewards(prompt([0.1, 0.2, 0.3], {0, 1, 2}), 20,
                                    np.random.default_rng(0))
        assert rewards.mean() == 1.0
        assert rewards.sum() == 20

    def test_empty_correct_set_gives_all_zeros(self):
        rewards, _ = sample_rewards(prompt([0.1, 0.2], set()), 15, np.random.default_rng(0))
        assert rewards.mean() == 0.0

    def test_binomial_concentration(self):
        # 3-sigma bound for n=1e5 fair coin: 3 * 0.5 / sqrt(n) < 0.005
        rewards, _ = sample_rewards(prompt([0.0, 0.0], {0}), 100_000, np.random.default_rng(123))
        assert abs(rewards.mean() - 0.5) < 0.005

    def test_deterministic_under_seed(self):
        pr = prompt([0.4, -0.4, 0.0], {1})
        a = sample_rewards(pr, 64, np.random.default_rng(99))
        b = sample_rewards(pr, 64, np.random.default_rng(99))
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[0], b[0])


class TestPopulation:
    def test_base_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PromptPopulation(np.zeros((2, 2)), [[True, False]] * 2,
                             base_weights=np.array([0.4, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base_weights_rejected_naming_prompt(self, bad):
        weights = [0.5, 0.5, 0.0]
        weights[1] = bad
        with pytest.raises(ValueError, match="prompt 1: base weight must be finite"):
            PromptPopulation(np.zeros((3, 4)), np.ones((3, 4), dtype=bool), weights)

    def test_synthesis_hits_targets(self):
        targets = (0.1, 0.37, 0.62, 0.9, 0.005)
        pop = make_population(5, m=16, seed=1,
                              profile=DifficultyProfile(kind="fixed", targets=targets))
        rates = population_pass_rates(pop.logits, pop.correct)
        assert np.all(np.abs(rates - targets) <= 1e-9)

    def test_beta_profile_with_unsolvable_fraction(self):
        prof = DifficultyProfile(kind="beta", alpha=1.0, beta=5.0, unsolvable_fraction=0.1)
        pop = make_population(100, m=16, seed=5, profile=prof)
        rates = population_pass_rates(pop.logits, pop.correct)
        assert (rates == 0.0).sum() == 10
        np.testing.assert_array_equal(rates == 0.0, ~pop.correct.any(axis=1))
        solvable = rates[rates > 0]
        assert solvable.mean() < 0.4  # Beta(1,5) skews hard
        assert pop.m == 16
        assert abs(pop.base_weights.sum() - 1.0) < 1e-12

    def test_every_prompt_unsolvable(self):
        # no row has an offset to compute
        pop = make_population(1, 8, DifficultyProfile(unsolvable_fraction=0.6))
        assert not pop.correct.any()
        assert population_pass_rates(pop.logits, pop.correct).tolist() == [0.0]

    def test_offsets_are_solved_in_lockstep(self):
        # one offset computation per block of rows over all its prompts, not
        # one per prompt (hundreds at these sizes)
        for size, m in [(500, 16), (500, 256), (1, 8)]:
            calls = []

            def counting(e, mask, targets, lanes):
                calls.append(len(e))
                return _logit_offsets(e, mask, targets, lanes)

            with mock.patch.object(passrate, "_logit_offsets", counting):
                make_population(size, m, seed=0)
            block = _SHIFT_BLOCK_VALUES // m
            assert calls == [min(block, size - lo) for lo in range(0, size, block)], (size, m)

    @pytest.mark.parametrize("rows", [1, 9, 2 * 700])
    def test_stream_does_not_depend_on_the_block_size(self, monkeypatch, rows):
        # one row per block, a ragged last block (700 = 77 * 9 + 7), and one block
        size, m = 700, 32
        profile = DifficultyProfile(unsolvable_fraction=0.1)
        expected = population_digest(make_population(size, m, profile, seed=8))
        monkeypatch.setattr(passrate, "_SHIFT_BLOCK_VALUES", rows * m)
        assert population_digest(make_population(size, m, profile, seed=8)) == expected

    @pytest.mark.parametrize("m", [2, 3, 16, 256])
    def test_correct_set_sizes(self, m):
        size = 2000
        pop = make_population(size, m, DifficultyProfile(unsolvable_fraction=0.1), seed=m)
        n = pop.correct.sum(axis=1)
        rates = population_pass_rates(pop.logits, pop.correct)
        np.testing.assert_array_equal(n == 0, rates == 0.0)
        assert (n == 0).sum() == 200
        # every size from 1 to the cap is drawn, and none above it
        assert np.unique(n[n > 0]).tolist() == list(range(1, max(1, m // 4) + 1))

    def test_correct_sets_are_uniform_over_positions(self):
        # each position is correct in a row with probability n_i / m, so a
        # column's count has mean sum(n_i) / m and variance
        # sum((n_i / m) (1 - n_i / m)); a selection biased to some positions
        # (say, always the first n) puts columns tens of SEs off
        m = 16
        pop = make_population(20_000, m, DifficultyProfile(unsolvable_fraction=0.1), seed=2024)
        n = pop.correct.sum(axis=1)
        q = n / m
        se = math.sqrt((q * (1 - q)).sum())
        z = (pop.correct.sum(axis=0) - n.sum() / m) / se
        assert np.abs(z).max() < 4.0, z

    def test_generation_is_deterministic(self):
        a = make_population(20, seed=3)
        b = make_population(20, seed=3)
        np.testing.assert_array_equal(a.logits, b.logits)
        np.testing.assert_array_equal(a.correct, b.correct)

    def test_arrays_are_read_only_copies(self):
        logits, correct = np.zeros((2, 3)), np.ones((2, 3), dtype=bool)
        pop = PromptPopulation(logits, correct)
        logits[0, 0] = 5.0
        correct[0, 0] = False
        assert pop.logits[0, 0] == 0.0 and pop.correct[0, 0]
        for arr in (pop.logits, pop.correct, pop.base_weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


def drawn_population(size, m, profile, seed):
    """The targets, base logits and correct masks of ``make_population``'s
    draws, made here with the same generator calls in the same order, with
    every correct set's keys drawn at once."""
    rng = np.random.default_rng(seed)
    if profile.kind == "beta":
        targets = rng.beta(profile.alpha, profile.beta, size=size)
    else:
        targets = np.resize(np.asarray(profile.targets, dtype=np.float64), size)
    unsolvable = np.zeros(size, dtype=bool)
    n_unsolvable = int(round(size * profile.unsolvable_fraction))
    if n_unsolvable:
        unsolvable[rng.choice(size, size=n_unsolvable, replace=False)] = True
    base = rng.standard_normal((size, m))
    n_correct = np.where(unsolvable, 0, rng.integers(1, max(1, m // 4) + 1, size=size))
    # the rank of each key in its row; a correct set is its n smallest keys
    ranks = rng.random((size, m)).argsort(axis=1).argsort(axis=1)
    return np.clip(targets, 1e-8, 1.0 - 1e-8), base, ranks < n_correct[:, None]


EDGE_TARGETS = (0.0, 1e-8, 0.5, 1.0 - 1e-8, 1.0)

profiles = st.one_of(
    st.builds(DifficultyProfile, kind=st.just("beta"), alpha=st.floats(0.1, 10.0),
              beta=st.floats(0.1, 10.0), unsolvable_fraction=st.floats(0.0, 0.9)),
    st.builds(DifficultyProfile, kind=st.just("fixed"),
              targets=st.lists(st.sampled_from(EDGE_TARGETS), min_size=1, max_size=5).map(tuple),
              unsolvable_fraction=st.floats(0.0, 0.9)),
)


class TestClosedFormOffsets:
    @given(size=st.integers(1, 400), m=st.integers(2, 300), profile=profiles,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_row_hits_its_clipped_target(self, size, m, profile, seed):
        # sizes past one shift block (2**16 // m rows) make several blocks
        pop = make_population(size, m, profile, seed=seed)
        targets, _, correct = drawn_population(size, m, profile, seed)
        rates = population_pass_rates(pop.logits, pop.correct)
        solvable = correct.any(axis=1)
        assert np.abs(rates - targets)[solvable].max(initial=0.0) <= 1e-14
        assert (rates[~solvable] == 0.0).all()

    @pytest.mark.parametrize("size, m, seed", [(2000, 256, 47), (500, 16, 311), (300, 3, 1)])
    def test_only_the_correct_logits_move(self, size, m, seed):
        profile = DifficultyProfile(kind="beta", alpha=1.0, beta=4.0, unsolvable_fraction=0.1)
        pop = make_population(size, m, profile, seed=seed)
        _, base, correct = drawn_population(size, m, profile, seed)
        np.testing.assert_array_equal(pop.correct, correct)
        # bit for bit the drawn standard normals
        assert pop.logits[~correct].tobytes() == base[~correct].tobytes()
        # each solvable row's correct logits move by one offset
        shift = pop.logits - base
        spread = (np.where(correct, shift, -np.inf).max(axis=1)
                  - np.where(correct, shift, np.inf).min(axis=1))
        assert spread[correct.any(axis=1)].max() < 1e-13


def offset_rows(m, sizes, seed):
    """Standard-normal base logits with one row per correct-set size in
    ``sizes``, and targets; the first two at the clipped ends of (0, 1)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((len(sizes), m))
    mask = np.zeros(base.shape, dtype=bool)
    for row, size in zip(mask, sizes):
        row[rng.choice(m, size=size, replace=False)] = True
    targets = rng.uniform(0.0, 1.0, len(sizes))
    targets[:2] = 1e-8, 1.0 - 1e-8
    return base, mask, targets


class TestOffsetSolve:
    """Each lane of a batched offset computation against the lane alone and
    the textbook pass rate of its shifted row."""

    @pytest.mark.parametrize("m, sizes", [
        # 64 lanes: sizes 1 to 48 out of order, 1 to 16 twice
        (256, [(5 * i) % 48 + 1 for i in range(64)]),
        # exactly 8 entries, and more than numpy's 128-entry pairwise block
        (1024, [129, 8, 1, 256, 8, 130, 2, 200]),
    ])
    def test_lanes_equal_textbook_one_lane_solves(self, m, sizes):
        base, mask, targets = offset_rows(m, sizes, seed=m)
        e = np.exp(base - base.max(axis=1, keepdims=True))
        offsets = _logit_offsets(e, mask, targets, np.ones(len(sizes), dtype=bool))
        for i, offset in enumerate(offsets):
            alone = _logit_offsets(e[i:i + 1], mask[i:i + 1], targets[i:i + 1],
                                   np.ones(1, dtype=bool))[0]
            assert float(offset).hex() == float(alone).hex(), f"lane {i}"
            rate = softmax(base[i] + offset * mask[i])[mask[i]].sum()
            assert abs(rate - targets[i]) <= 1e-14, f"lane {i}"

    @pytest.mark.parametrize("empty", [0, 2])
    def test_empty_correct_set_names_its_lane(self, empty):
        base, mask, targets = offset_rows(16, [3, 1, 2], seed=0)
        mask[empty] = False
        with pytest.raises(ValueError,
                           match=rf"^lane {empty}: empty correct set, no offset reaches the target$"):
            _logit_offsets(np.exp(base), mask, targets, np.ones(3, dtype=bool))

    def test_full_correct_set_names_its_lane(self):
        base, mask, targets = offset_rows(16, [3, 1, 2], seed=0)
        mask[1] = True
        with pytest.raises(ValueError,
                           match=r"^lane 1: full correct set, no offset reaches the target$"):
            _logit_offsets(np.exp(base), mask, targets, np.ones(3, dtype=bool))

    def test_lanes_left_out_keep_offset_zero(self):
        # an unsolvable row is left out, and its empty set raises nothing
        base, mask, targets = offset_rows(16, [3, 1, 2], seed=0)
        mask[1] = False
        lanes = np.array([True, False, True])
        offsets = _logit_offsets(np.exp(base), mask, targets, lanes)
        assert offsets[1] == 0.0
        assert offsets[[0, 2]].tolist() == _logit_offsets(
            np.exp(base[[0, 2]]), mask[[0, 2]], targets[[0, 2]], np.ones(2, dtype=bool)).tolist()


class TestDigest:
    def test_hashes_logits_then_correct_then_base_weights(self):
        pop = make_population(5, m=4, seed=3)
        data = pop.logits.tobytes() + pop.correct.tobytes() + pop.base_weights.tobytes()
        assert population_digest(pop) == hashlib.sha256(data).hexdigest()

    def test_one_changed_entry_changes_the_digest(self):
        pop = make_population(5, m=4, seed=3)
        zero, negative_zero, correct = pop.logits.copy(), pop.logits.copy(), pop.correct.copy()
        zero[2, 1], negative_zero[2, 1] = 0.0, -0.0
        correct[4, 0] = ~correct[4, 0]
        changed = [PromptPopulation(zero, pop.correct),
                   PromptPopulation(negative_zero, pop.correct),
                   PromptPopulation(pop.logits, correct),
                   PromptPopulation(pop.logits, pop.correct, [0.1, 0.3, 0.2, 0.2, 0.2])]
        digests = {population_digest(p) for p in [pop, *changed]}
        assert len(digests) == 1 + len(changed)
