"""Pass-rate oracle tests: closed forms, finite differences, sampling."""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverl import passrate
from curverl.kernels import accumulate_gradients, sample_responses
from curverl.passrate import (
    _OFFSET_BRACKET,
    DifficultyProfile,
    PromptPopulation,
    _solve_logit_offsets,
    make_population,
    population_from_json,
    population_pass_rate_gradients,
    population_pass_rates,
    population_to_json,
    softmax,
    write_population_json,
)
from curverl.rootfind import brentq_lanes
from test_golden import POPULATION_CASES
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


OFFSET_TOLERANCES = dict(xtol=1e-13, rtol=8.9e-16, maxiter=200)


def brentq(f, a, b, **kwargs):
    """A root of the scalar ``f`` in [a, b]: one lane of :func:`brentq_lanes`,
    called the way ``scipy.optimize.brentq`` is."""
    root = brentq_lanes(lambda x, lanes: [f(float(x[0]))], [float(a)], [float(b)], **kwargs)
    return float(root[0])


def offset_gap(base, mask, target):
    """One offset problem as a scalar function: the textbook pass rate of the
    shifted row minus the target."""
    return lambda d: float(softmax(base + d * mask)[mask].sum()) - target


@contextlib.contextmanager
def counting_gap_evaluations():
    """Count the offset solve's gap evaluations into the yielded one-item list."""
    calls = [0]

    def counting(f, a, b, **kwargs):
        def counted(x, lanes):
            calls[0] += 1
            return f(x, lanes)

        return brentq_lanes(counted, a, b, **kwargs)

    with mock.patch.object(passrate, "brentq_lanes", counting):
        yield calls


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
        with pytest.raises(ValueError, match="prompt 0: correct index out of range"):
            population_from_json(population_to_json(prompt([0.0, 0.0], {0})).replace(
                '"correct": [0]', '"correct": [5]'))


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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_base_weights_rejected_from_json(self, literal):
        text = population_to_json(make_population(3, m=4, seed=0))
        head, _, _ = text.partition('"base_weights": [')
        doc = head + f'"base_weights": [0.5, {literal}, 0.5]\n}}\n'
        with pytest.raises(ValueError, match="prompt 1: base weight must be finite"):
            population_from_json(doc)

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
        # the offset solve has no lanes at all
        pop = make_population(1, 8, DifficultyProfile(unsolvable_fraction=0.6))
        assert not pop.correct.any()
        assert population_pass_rates(pop.logits, pop.correct).tolist() == [0.0]

    def test_offsets_are_solved_in_lockstep(self):
        # one gap evaluation per Brent iteration over all prompts, not one per
        # prompt and iteration (thousands at this size)
        with counting_gap_evaluations() as calls:
            make_population(500, 16, seed=0)
        assert 0 < calls[0] <= 64

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


class TestOffsetSolve:
    """Each lane of a batched solve against the textbook gap solved alone."""

    @pytest.mark.parametrize("m, sizes", [
        # 64 lanes: sizes 1 to 48 out of order, 1 to 16 twice
        (256, [(5 * i) % 48 + 1 for i in range(64)]),
        # exactly 8 entries, and more than numpy's 128-entry pairwise block
        (1024, [129, 8, 1, 256, 8, 130, 2, 200]),
    ])
    def test_lanes_equal_textbook_one_lane_solves(self, m, sizes):
        base, mask, targets = offset_rows(m, sizes, seed=m)
        roots = _solve_logit_offsets(base, mask, targets)
        for i, root in enumerate(roots):
            expected = brentq(offset_gap(base[i], mask[i], targets[i]),
                              -_OFFSET_BRACKET, _OFFSET_BRACKET, **OFFSET_TOLERANCES)
            assert float(root).hex() == expected.hex(), f"lane {i}"

    @pytest.mark.parametrize("empty", [0, 2])
    def test_empty_correct_set_names_its_lane(self, empty):
        base, mask, targets = offset_rows(16, [3, 1, 2], seed=0)
        mask[empty] = False
        with pytest.raises(ValueError,
                           match=rf"^lane {empty}: f\(a\) and f\(b\) must have different signs$"):
            _solve_logit_offsets(base, mask, targets)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        pop = make_population(12, m=6, seed=8,
                              profile=DifficultyProfile(kind="beta", alpha=2, beta=2,
                                                        unsolvable_fraction=0.25))
        text = population_to_json(pop)
        back = population_from_json(text)
        np.testing.assert_array_equal(pop.logits, back.logits)
        np.testing.assert_array_equal(pop.base_weights, back.base_weights)
        np.testing.assert_array_equal(pop.correct, back.correct)
        # serialize(parse(serialize(x))) is byte-identical to serialize(x)
        assert population_to_json(back) == text

    def test_unknown_keys_rejected(self):
        pop = make_population(2, m=4, seed=0)
        doc = population_to_json(pop).replace('"m":', '"extra": 1, "m":', 1)
        with pytest.raises(ValueError):
            population_from_json(doc)

    def test_id_must_be_row_index(self):
        text = population_to_json(make_population(3, m=4, seed=0))
        with pytest.raises(ValueError, match="prompt 2: expected id 1"):
            population_from_json(text.replace('"id": 1,', '"id": 2,'))

    @pytest.mark.parametrize("given_id", ["true", "1.0"])
    def test_id_must_be_an_integer(self, given_id):
        text = population_to_json(make_population(3, m=4, seed=0))
        with pytest.raises(ValueError, match="expected id 1"):
            population_from_json(text.replace('"id": 1,', f'"id": {given_id},'))

    def test_negative_zero_logit_round_trips(self):
        # the writer renders -0.0 as "-0", which json alone reads as the int 0
        pop = prompt([-0.0, 0.0, 1.5], {2})
        back = population_from_json(population_to_json(pop))
        assert np.signbit(back.logits).tolist() == [[True, False, False]]
        assert population_to_json(back) == population_to_json(pop)

    @pytest.mark.parametrize("literal", ["true", "false"])
    def test_logits_must_be_numbers(self, literal):
        text = population_to_json(prompt([0.5, 1.5], {1}))
        assert text.count("[0.5, 1.5]") == 1
        with pytest.raises(ValueError, match="prompt 0: logits must be a list of numbers"):
            population_from_json(text.replace("[0.5, 1.5]", f"[{literal}, 1.5]"))

    @pytest.mark.parametrize("literal", ["true", "false"])
    def test_base_weights_must_be_numbers(self, literal):
        text = population_to_json(make_population(3, m=4, seed=0))
        head, _, _ = text.partition('"base_weights": [')
        doc = head + f'"base_weights": [0.5, {literal}, 0.5]\n}}\n'
        with pytest.raises(ValueError, match="prompt 1: base weight must be a number"):
            population_from_json(doc)

    @pytest.mark.parametrize("m", ["2.9", "2.0", "true", "1"])
    def test_m_must_be_an_integer_of_at_least_two(self, m):
        text = population_to_json(prompt([0.5, 1.5], {1}))
        with pytest.raises(ValueError, match="m must be an integer >= 2"):
            population_from_json(text.replace('"m": 2,', f'"m": {m},'))

    @pytest.mark.parametrize("entry", ["[0.7]", "[true]", "[1, 1]", "[1.0]", "[-0]", "1"])
    def test_correct_entries_must_be_distinct_indices(self, entry):
        pop = PromptPopulation([[0.0, 0.0], [1.0, 2.0]], [[True, False], [False, True]])
        text = population_to_json(pop)
        assert text.count('"correct": [1]') == 1
        with pytest.raises(ValueError, match="prompt 1: (correct must be|repeated)"):
            population_from_json(text.replace('"correct": [1]', f'"correct": {entry}'))


@pytest.fixture(scope="module")
def wide_population():
    # train-wide's shape: population.json is about 11 MB
    return make_population(2000, 256, seed=0)


def population_json_per_row(pop):
    """The reference writer: each prompt line from one ``%`` template call
    over that row, and the base weights from one call over all of them."""
    floats = ", ".join(["%.17g"] * pop.m)
    lines = [f'{{\n  "m": {pop.m},\n  "prompts": [\n']
    last = len(pop) - 1
    for i, (row, correct) in enumerate(zip(pop.logits, pop.correct)):
        logits = floats % tuple(row.tolist())
        indices = ", ".join(map(str, np.flatnonzero(correct).tolist()))
        tail = "," if i < last else ""
        lines.append(f'    {{"id": {i}, "logits": [{logits}], "correct": [{indices}]}}{tail}\n')
    weights = ", ".join(["%.17g"] * len(pop)) % tuple(pop.base_weights.tolist())
    lines.append(f'  ],\n  "base_weights": [{weights}]\n}}\n')
    return "".join(lines)


# values at and around the edges of the writer's fast renderer, some of
# which it must leave to the template
SPECIAL_LOGITS = [-0.0, 5e-324, 1e-5, 1e-6, 9.9999999999999995e-07, 1e8, -1e8, 1e20,
                  2.0**53 + 1]


def adversarial_population():
    """300 x 16 logits spread over 1e-8 to 1e9 in magnitude, one special
    value in every third row and a row of them all; uneven base weights
    with a zero and a subnormal."""
    rng = np.random.default_rng(21)
    logits = rng.standard_normal((300, 16)) * 10.0 ** rng.integers(-8, 10, size=(300, 1))
    for i, v in enumerate(SPECIAL_LOGITS * 11):
        logits[3 * i, i % 16] = v
    logits[-1, :len(SPECIAL_LOGITS)] = SPECIAL_LOGITS
    weights = rng.random(300)
    weights[:2] = 0.0
    weights /= weights.sum()
    weights[1] = 5e-324
    return PromptPopulation(logits, rng.random((300, 16)) < 0.25, weights)


def tall_population():
    """More prompts than one block of logits or of base weights holds."""
    rng = np.random.default_rng(5)
    weights = rng.random(5000)
    return PromptPopulation(rng.standard_normal((5000, 2)), rng.random((5000, 2)) < 0.5,
                            weights / weights.sum())


class TestWriter:
    @pytest.mark.parametrize("case", sorted(POPULATION_CASES))
    def test_text_equals_per_row_writer_on_golden_populations(self, case):
        profile, seed = POPULATION_CASES[case]
        pop = make_population(64, 64, profile, seed=seed)
        assert population_to_json(pop) == population_json_per_row(pop)

    def test_text_equals_per_row_writer_on_wide_population(self, wide_population):
        assert population_to_json(wide_population) == population_json_per_row(wide_population)

    @pytest.mark.parametrize("build", [adversarial_population, tall_population])
    def test_text_equals_per_row_writer_at_the_edges(self, build, tmp_path):
        pop = build()
        text = population_to_json(pop)
        assert text == population_json_per_row(pop)
        write_population_json(tmp_path / "population.json", pop)
        assert (tmp_path / "population.json").read_bytes() == text.encode()
        back = population_from_json(text)
        for name in ("logits", "correct", "base_weights"):
            np.testing.assert_array_equal(getattr(back, name).view(np.uint8),
                                          getattr(pop, name).view(np.uint8))

    @pytest.mark.parametrize("case", sorted(POPULATION_CASES))
    def test_file_equals_text_on_golden_populations(self, case, tmp_path):
        profile, seed = POPULATION_CASES[case]
        pop = make_population(64, 64, profile, seed=seed)
        write_population_json(tmp_path / "population.json", pop)
        assert (tmp_path / "population.json").read_bytes() == population_to_json(pop).encode()

    def test_file_equals_text_on_wide_population(self, wide_population, tmp_path):
        write_population_json(tmp_path / "population.json", wide_population)
        data = (tmp_path / "population.json").read_bytes()
        assert data == population_to_json(wide_population).encode()
        assert len(data) > 10 * 2**20

    def test_write_holds_one_line_at_a_time(self, wide_population, tmp_path):
        # the whole text, joined, would be more than ten times this bound
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write_population_json(tmp_path / "population.json", wide_population)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
