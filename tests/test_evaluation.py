"""pass@k estimators on boolean rollout pools, difficulty buckets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverl.evaluation import (
    difficulty_histogram,
    evaluate_policy,
    pass_at_k,
    pass_at_k_exact_without_replacement,
)
from curverl.kernels import sample_responses
from curverl.passrate import DifficultyProfile, make_population, softmax


def sample_set(rewards):
    """A rollout pool: true where the sampled response was correct."""
    return np.asarray(rewards).astype(bool)


def with_replacement(q: float, k: int) -> float:
    """pass@k of a pool of accuracy q, as a Python float expression."""
    return q if k == 1 else 1.0 - (1.0 - q) ** k


class TestPassAtK:
    def test_all_correct_is_one_for_every_k(self):
        s = sample_set(np.ones(16))
        for k in (1, 2, 8, 16):
            assert pass_at_k(s, k) == 1.0

    def test_k1_is_raw_mean(self):
        s = sample_set([1, 0, 0, 0])
        assert pass_at_k(s, 1) == 0.25

    def test_k_beyond_pool_rejected(self):
        with pytest.raises(ValueError):
            pass_at_k(sample_set([1, 0]), 3)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_bootstrap_converges_to_with_replacement_formula(self, q, k):
        # the bootstrap's limit is what pass_at_k computes, exactly
        r = 100
        rewards = np.zeros(r, dtype=int)
        rewards[: int(q * r)] = 1
        s = sample_set(rewards)
        assert pass_at_k(s, k) == 1.0 - (1.0 - q) ** k

    @given(rows=st.integers(1, 40).flatmap(lambda r: st.lists(
               st.lists(st.booleans(), min_size=r, max_size=r), min_size=1, max_size=5)),
           k=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_accuracy_at_k1_and_closed_form_above(self, rows, k):
        block = np.asarray(rows, dtype=bool)
        k = min(k, block.shape[1])
        got = pass_at_k(block, k)
        for row, value in zip(block, got):
            assert value == with_replacement(float(row.mean()), k)

    @given(rows=st.integers(1, 30).flatmap(lambda r: st.lists(
               st.lists(st.booleans(), min_size=r, max_size=r), min_size=1, max_size=5)),
           k=st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_block_row_equals_one_pool_call(self, rows, k):
        block = np.asarray(rows, dtype=bool)
        k = min(k, block.shape[1])
        got = pass_at_k(block, k)
        assert isinstance(got, np.ndarray) and got.shape == (len(block),)
        for row, value in zip(block, got):
            alone = pass_at_k(row, k)
            assert isinstance(alone, float) and value == alone

    def test_exact_with_replacement_matches_formula(self):
        s = sample_set([1, 1, 0, 0, 0])
        assert pass_at_k(s, 3) == 1 - 0.6 ** 3

    def test_without_replacement_cross_check(self):
        # the two exact estimators agree as the pool grows (k fixed)
        r, q, k = 4000, 0.3, 4
        rewards = np.zeros(r, dtype=int)
        rewards[: int(q * r)] = 1
        s = sample_set(rewards)
        a = pass_at_k(s, k)
        b = pass_at_k_exact_without_replacement(s, k)
        assert abs(a - b) < 1e-3

    def test_without_replacement_small_pool(self):
        # 1 correct in 2, k=2: drawing both distinct rollouts always hits it
        s = sample_set([1, 0])
        assert pass_at_k_exact_without_replacement(s, 2) == 1.0

    def test_nondecreasing_in_k(self):
        s = sample_set([1, 0, 0, 0, 0, 0, 0, 0])
        exact = [pass_at_k(s, k) for k in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(exact, exact[1:]))


class TestBooleanPool:
    @pytest.mark.parametrize("bad", [[0, 1], [1.0, 0.0], [[True, False]]])
    def test_non_boolean_pool_rejected(self, bad):
        with pytest.raises(ValueError, match="1-d boolean"):
            pass_at_k_exact_without_replacement(np.asarray(bad), 1)
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
            evaluate_policy([theta], masks.astype(np.int64), 16, [1, 2], 0)


def eval_population(unsolvable):
    pop = make_population(12, m=6, seed=4,
                          profile=DifficultyProfile(kind="fixed", targets=(0.999, 0.5, 0.1),
                                                    unsolvable_fraction=unsolvable))
    return pop.logits, pop.correct


class TestEvaluatePolicy:
    K_LIST = (1, 2, 5, 16)

    def test_matches_pass_at_k_on_every_pool(self):
        # the same totals as scoring every pool, constant ones included, with
        # pass_at_k, summed in prompt order
        theta, masks = eval_population(unsolvable=0.25)
        r, seed = 16, 3
        [(got, emp_rates)] = evaluate_policy([theta], masks, r, self.K_LIST, seed)
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
                totals[k] += pass_at_k(s, k)
        assert constant >= 2 and constant < theta.shape[0]
        assert got == {k: totals[k] / theta.shape[0] for k in self.K_LIST}

    @given(seed=st.integers(0, 2**32 - 1), k_list=st.sets(st.integers(1, 16), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_mean_is_the_prompt_order_mean_over_the_rates(self, seed, k_list):
        theta_a, theta_b, masks = sharing_policies()
        got = evaluate_policy([theta_a, theta_b], masks, 16, k_list, seed)
        for passk, rates in got:
            assert list(passk) == sorted(k_list)
            for k, mean in passk.items():
                total = 0.0
                for q in rates.tolist():
                    total += with_replacement(q, k)
                assert mean == total / len(rates)

    def test_all_unsolvable_population(self):
        theta, masks = eval_population(unsolvable=0.0)
        masks = np.zeros_like(masks)
        [(got, emp_rates)] = evaluate_policy([theta], masks, 16, self.K_LIST, 0)
        assert got == dict.fromkeys(self.K_LIST, 0.0)
        np.testing.assert_array_equal(emp_rates, 0.0)

    @pytest.mark.parametrize("masks_shape", [(12, 5), (11, 6), (12,)])
    def test_shape_mismatch_rejected(self, masks_shape):
        theta, _ = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match="equal shape"):
            evaluate_policy([theta], np.zeros(masks_shape, dtype=bool), 16, [1, 2], 0)

    def test_one_dimensional_theta_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            evaluate_policy([np.zeros(6)], np.zeros(6, dtype=bool), 16, [1, 2], 0)

    def test_no_policy_rejected(self):
        _, masks = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match="at least one policy"):
            evaluate_policy([], masks, 16, [1, 2], 0)


def sharing_policies():
    """Two policies on one population whose pools differ in kind: on some
    prompts A's pool is live (some rollouts right, some wrong) and B's all right, on the unsolvable ones every
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
        args = (masks, 16, self.K_LIST, seed)
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
