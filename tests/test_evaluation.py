"""pass@k estimators on boolean rollout pools, difficulty buckets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverl import evaluation
from curverl.evaluation import (
    _RAW_DRAW_BLOCK,
    _RAW_DRAW_FLOOR,
    _draw_indices,
    difficulty_histogram,
    evaluate_policy,
    pass_at_k,
    pass_at_k_exact_with_replacement,
    pass_at_k_exact_without_replacement,
)
from curverl.kernels import sample_responses
from curverl.passrate import DifficultyProfile, make_population, softmax


def sample_set(rewards):
    """A rollout pool: true where the sampled response was correct."""
    return np.asarray(rewards).astype(bool)


class TestPassAtK:
    def test_all_correct_is_one_for_every_k(self):
        s = sample_set(np.ones(16))
        rng = np.random.default_rng(0)
        for k in (1, 2, 8, 16):
            assert pass_at_k(s, k, rng=rng) == 1.0

    def test_k1_is_raw_mean(self):
        s = sample_set([1, 0, 0, 0])
        assert pass_at_k(s, 1) == 0.25

    def test_k_beyond_pool_rejected(self):
        with pytest.raises(ValueError):
            pass_at_k(sample_set([1, 0]), 3)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_bootstrap_converges_to_with_replacement_formula(self, q, k):
        r = 100
        rewards = np.zeros(r, dtype=int)
        rewards[: int(q * r)] = 1
        s = sample_set(rewards)
        est = pass_at_k(s, k, resamples=100_000, rng=np.random.default_rng(17))
        assert abs(est - (1.0 - (1.0 - q) ** k)) < 0.01

    @given(seed=st.integers(0, 2**32 - 1),
           rewards=st.lists(st.booleans(), min_size=1, max_size=40),
           k=st.integers(2, 40), resamples=st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_hit_count_equals_max_then_mean(self, seed, rewards, k, resamples):
        # the integer form: the max reward of each resample, averaged
        s = sample_set(rewards)
        k = min(k, s.size)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        idx = ref_rng.integers(0, s.size, size=(resamples, k))
        expected = float(s.astype(np.int64)[idx].max(axis=1).mean())
        assert pass_at_k(s, k, resamples=resamples, rng=rng) == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.integers(1, 30).flatmap(lambda r: st.lists(
               st.lists(st.booleans(), min_size=r, max_size=r), min_size=1, max_size=5)),
           k=st.integers(1, 30), resamples=st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_block_row_equals_one_pool_call(self, seed, rows, k, resamples):
        # every row of a block is scored against the same draw as a lone pool
        block = np.asarray(rows, dtype=bool)
        k = min(k, block.shape[1])
        rng = np.random.default_rng(seed)
        got = pass_at_k(block, k, resamples=resamples, rng=rng)
        assert isinstance(got, np.ndarray) and got.shape == (len(block),)
        for row, value in zip(block, got):
            row_rng = np.random.default_rng(seed)
            alone = pass_at_k(row, k, resamples=resamples, rng=row_rng)
            assert isinstance(alone, float) and value == alone
            assert row_rng.bit_generator.state == rng.bit_generator.state

    def test_exact_with_replacement_matches_formula(self):
        s = sample_set([1, 1, 0, 0, 0])
        assert pass_at_k_exact_with_replacement(s, 3) == pytest.approx(1 - 0.6 ** 3, abs=1e-15)

    def test_without_replacement_cross_check(self):
        # the two exact estimators agree as the pool grows (k fixed)
        r, q, k = 4000, 0.3, 4
        rewards = np.zeros(r, dtype=int)
        rewards[: int(q * r)] = 1
        s = sample_set(rewards)
        a = pass_at_k_exact_with_replacement(s, k)
        b = pass_at_k_exact_without_replacement(s, k)
        assert abs(a - b) < 1e-3

    def test_without_replacement_small_pool(self):
        # 1 correct in 2, k=2: drawing both distinct rollouts always hits it
        s = sample_set([1, 0])
        assert pass_at_k_exact_without_replacement(s, 2) == 1.0

    def test_nondecreasing_in_k(self):
        s = sample_set([1, 0, 0, 0, 0, 0, 0, 0])
        exact = [pass_at_k_exact_with_replacement(s, k) for k in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(exact, exact[1:]))
        # bootstrap estimates stay within 0.02 of the exact curve
        rng = np.random.default_rng(3)
        for k in (2, 4, 8):
            est = pass_at_k(s, k, resamples=100_000, rng=rng)
            assert abs(est - pass_at_k_exact_with_replacement(s, k)) < 0.02


def same_state(a, b) -> bool:
    """Strict equality of two ``bit_generator.state`` values, array fields included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return type(a) is type(b) and np.array_equal(a, b)


BIT_GENERATORS = {
    "PCG64": np.random.PCG64,
    "MT19937": np.random.MT19937,
    "Philox": np.random.Philox,
    "SFC64": np.random.SFC64,
}


class TestDrawIndices:
    # a power of two up to 2**32 may read raw words; other ranges, and every
    # generator but PCG64, go through integers
    @given(seed=st.integers(0, 2**64 - 1),
           r=st.one_of(st.integers(1, 32).map(lambda b: 2**b),
                       st.sampled_from([3, 200, 1000, 2**31 + 1, 2**32 - 1])),
           n=st.one_of(st.integers(0, 64), st.integers(_RAW_DRAW_FLOOR - 3, 3 * _RAW_DRAW_BLOCK)),
           buffered=st.booleans(),
           # PCG64 at least half the time: only it can take the raw-word path
           bit_generator=st.one_of(st.just("PCG64"), st.sampled_from(sorted(BIT_GENERATORS))))
    @settings(max_examples=300, deadline=None)
    def test_equals_integers_values_dtype_and_state(self, seed, r, n, buffered, bit_generator):
        rng, ref_rng = (np.random.Generator(BIT_GENERATORS[bit_generator](seed))
                        for _ in range(2))
        if buffered:
            # an odd count of 32-bit draws that never reject leaves half a word
            for g in (rng, ref_rng):
                g.integers(0, 8, size=3)
            if bit_generator == "PCG64":
                assert rng.bit_generator.state["has_uint32"] == 1
        got = _draw_indices(rng, r, n)
        expected = ref_rng.integers(0, r, size=n)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)

    @pytest.mark.parametrize("r, n, raw", [
        (256, 2 * _RAW_DRAW_FLOOR, True),
        (2**32, _RAW_DRAW_FLOOR, True),
        (2, 2 * _RAW_DRAW_BLOCK + 6, True),  # two full blocks of raw words and a ragged one
        (256, 2 * _RAW_DRAW_FLOOR + 1, False),  # odd
        (256, _RAW_DRAW_FLOOR - 2, False),  # below the floor
        (200, 2 * _RAW_DRAW_FLOOR, False),  # no power of two
    ])
    def test_raw_words_draw_all_but_two(self, r, n, raw):
        # a stand-in generator that records what reaches integers
        class Recorder:
            def __init__(self, seed):
                self.generator = np.random.default_rng(seed)
                self.bit_generator = self.generator.bit_generator
                self.sizes = []

            def integers(self, low, high, size):
                self.sizes.append(size)
                return self.generator.integers(low, high, size=size)

        rng = Recorder(7)
        got = _draw_indices(rng, r, n)
        assert rng.sizes == ([2] if raw else [n])
        ref_rng = np.random.default_rng(7)
        np.testing.assert_array_equal(got, ref_rng.integers(0, r, size=n))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBooleanPool:
    @pytest.mark.parametrize("bad", [[0, 1], [1.0, 0.0], [[True, False]]])
    def test_non_boolean_pool_rejected(self, bad):
        for estimator in (pass_at_k_exact_with_replacement, pass_at_k_exact_without_replacement):
            with pytest.raises(ValueError, match="1-d boolean"):
                estimator(np.asarray(bad), 1)
        # pass_at_k also scores a 2-d block of pools, one per row, but no
        # non-boolean pool and nothing of more dimensions
        pool = np.asarray(bad)
        if pool.dtype == bool:
            np.testing.assert_array_equal(pass_at_k(pool, 1), [0.5])
            pool = pool[None]
        with pytest.raises(ValueError, match="1-d boolean"):
            pass_at_k(pool, 1)

    def test_non_boolean_masks_rejected(self):
        theta, masks = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match="boolean"):
            evaluate_policy([theta], masks.astype(np.int64), 16, [1, 2], 10, 0)


def eval_population(unsolvable):
    pop = make_population(12, m=6, seed=4,
                          profile=DifficultyProfile(kind="fixed", targets=(0.999, 0.5, 0.1),
                                                    unsolvable_fraction=unsolvable))
    return pop.logits, pop.correct


class TestEvaluatePolicy:
    K_LIST = (1, 2, 5, 16)

    def test_matches_pass_at_k_on_every_pool(self):
        # the same totals as scoring every pool, constant ones included, with
        # pass_at_k on the pool's own seeded generator
        theta, masks = eval_population(unsolvable=0.25)
        r, resamples, seed = 16, 50, 3
        [(got, emp_rates)] = evaluate_policy([theta], masks, r, self.K_LIST, resamples, seed)
        cum = np.cumsum(softmax(theta), axis=1)
        totals = dict.fromkeys(self.K_LIST, 0.0)
        constant = 0
        for i in range(theta.shape[0]):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            responses = sample_responses(cum[i:i + 1], rng.random((1, r)))[0]
            s = masks[i][responses]
            assert emp_rates[i] == s.mean()
            constant += s.min() == s.max()
            for k in self.K_LIST:
                totals[k] += pass_at_k(s, k, resamples=resamples, rng=rng)
        assert constant >= 2 and constant < theta.shape[0]
        assert got == {k: totals[k] / theta.shape[0] for k in self.K_LIST}

    def test_all_unsolvable_population(self):
        theta, masks = eval_population(unsolvable=0.0)
        masks = np.zeros_like(masks)
        [(got, emp_rates)] = evaluate_policy([theta], masks, 16, self.K_LIST, 10, 0)
        assert got == dict.fromkeys(self.K_LIST, 0.0)
        np.testing.assert_array_equal(emp_rates, 0.0)
        # no pool draws a resample, yet resamples is still checked
        with pytest.raises(ValueError, match="resamples"):
            evaluate_policy([theta], masks, 16, self.K_LIST, 0, 0)

    def test_resamples_unused_at_k1(self):
        theta, masks = eval_population(unsolvable=0.25)
        [(got, _)] = evaluate_policy([theta], masks, 16, [1], 0, 0)
        assert list(got) == [1]

    @pytest.mark.parametrize("masks_shape", [(12, 5), (11, 6), (12,)])
    def test_shape_mismatch_rejected(self, masks_shape):
        theta, _ = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match="equal shape"):
            evaluate_policy([theta], np.zeros(masks_shape, dtype=bool), 16, [1, 2], 10, 0)

    def test_one_dimensional_theta_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            evaluate_policy([np.zeros(6)], np.zeros(6, dtype=bool), 16, [1, 2], 10, 0)

    def test_each_live_prompt_calls_the_module_pass_at_k_once_per_k(self, monkeypatch):
        # curvebench measures the bootstrap by replacing evaluation.pass_at_k
        calls = []

        def spy(pool, k, *args, **kwargs):
            calls.append((pool.shape, k))
            return real(pool, k, *args, **kwargs)

        real = evaluation.pass_at_k
        monkeypatch.setattr(evaluation, "pass_at_k", spy)
        theta_a, theta_b, masks = sharing_policies()
        got = evaluate_policy([theta_a, theta_b], masks, 16, self.K_LIST, 50, 3)
        live = np.array([(rates > 0) & (rates < 1) for _, rates in got])
        assert live.any(axis=0).any() and not live.any(axis=0).all()
        # one call per k >= 2 of each prompt with a live pool, scoring all of them
        expected = [((n_live, 16), k) for n_live in live.sum(axis=0) if n_live
                    for k in self.K_LIST if k >= 2]
        assert calls == expected

    def test_no_policy_rejected(self):
        _, masks = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match="at least one policy"):
            evaluate_policy([], masks, 16, [1, 2], 10, 0)


def sharing_policies():
    """Two policies on one population whose pools differ in kind: on some
    prompts A's pool is live and B's all right, on the unsolvable ones every
    pool is all wrong, and on the rest both are live."""
    theta_a, masks = eval_population(unsolvable=0.25)
    theta_b = theta_a.copy()
    forced = [i for i in range(len(masks)) if masks[i].any()][::2]
    for i in forced:
        theta_b[i, np.flatnonzero(masks[i])[0]] = 60.0
    return theta_a, theta_b, masks


class TestSharedEvaluation:
    K_LIST = (1, 2, 5, 16)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_shared_pass_equals_each_policy_alone(self, seed):
        theta_a, theta_b, masks = sharing_policies()
        args = (masks, 16, self.K_LIST, 50, seed)
        [alone_a] = evaluate_policy([theta_a], *args)
        [alone_b] = evaluate_policy([theta_b], *args)
        live_a, live_b = ((rates > 0) & (rates < 1) for _, rates in (alone_a, alone_b))
        assert (live_a & ~live_b).any()  # one pool live, the other constant
        assert (~live_a & ~live_b).any()  # every pool constant
        assert (live_a & live_b).any()
        for order, expected in (([theta_a, theta_b], [alone_a, alone_b]),
                                ([theta_b, theta_a], [alone_b, alone_a]),
                                ([theta_a, theta_b, theta_a], [alone_a, alone_b, alone_a])):
            got = evaluate_policy(order, *args)
            assert len(got) == len(expected)
            for (passk, rates), (passk_alone, rates_alone) in zip(got, expected):
                # float equality is bit equality here: no value is nan or -0.0
                assert passk == passk_alone
                assert rates.tobytes() == rates_alone.tobytes()

    def test_ten_policies_span_two_bit_tables(self):
        # pass_at_k packs eight pools per bit table: a prompt with nine or
        # more live pools is scored through two
        theta_a, theta_b, masks = sharing_policies()
        rng = np.random.default_rng(5)
        thetas = [theta_a, theta_b] + [theta_a + rng.normal(0.0, 0.5, theta_a.shape)
                                       for _ in range(8)]
        args = (masks, 16, self.K_LIST, 50, 3)
        alone = [evaluate_policy([theta], *args)[0] for theta in thetas]
        live = np.array([(rates > 0) & (rates < 1) for _, rates in alone])
        assert live.sum(axis=0).max() > 8
        got = evaluate_policy(thetas, *args)
        assert len(got) == len(thetas)
        for (passk, rates), (passk_alone, rates_alone) in zip(got, alone):
            assert passk == passk_alone
            assert rates.tobytes() == rates_alone.tobytes()


class TestDifficultyHistogram:
    def test_one_prompt_per_bucket(self):
        counts = difficulty_histogram([0.0, 0.3, 0.8, 1.0])
        assert list(counts.items()) == [("unsolvable", 1), ("hard", 1), ("medium", 1),
                                        ("easy", 1)]

    def test_half_counts_as_hard(self):
        assert difficulty_histogram([0.5])["hard"] == 1

    def test_empty_input(self):
        assert sum(difficulty_histogram([]).values()) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            difficulty_histogram([1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a nan rate fits no bucket, so counting it would drop a prompt
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            difficulty_histogram([bad, 0.5])

    @given(st.lists(st.one_of(st.floats(0, 1), st.just(np.nan)), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_buckets_partition_input(self, rates):
        if any(np.isnan(rates)):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                difficulty_histogram(rates)
        else:
            assert sum(difficulty_histogram(rates).values()) == len(rates)
