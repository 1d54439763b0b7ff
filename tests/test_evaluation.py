"""Exact pass@k of a policy from its closed-form pass rates, difficulty buckets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverl.evaluation import _pass_at_k_of_rates, difficulty_histogram, evaluate_policy
from curverl.passrate import DifficultyProfile, make_population, population_pass_rates


def with_replacement(q: float, k: int) -> float:
    """pass@k of a prompt with pass rate q, as a Python float expression."""
    return q if k == 1 else 1.0 - (1.0 - q) ** k


def prompt_order_mean(values) -> float:
    """The mean of ``values``, summed left to right."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def eval_population(unsolvable):
    pop = make_population(12, m=6, seed=4,
                          profile=DifficultyProfile(kind="fixed", targets=(0.999, 0.5, 0.1),
                                                    unsolvable_fraction=unsolvable))
    return pop.logits, pop.correct


class TestPassAtK:
    def test_all_correct_is_one_for_every_k(self):
        # uniform logits over 8 responses: each rate sums eight 1/8s, exactly 1
        got, rates = evaluate_policy(np.zeros((5, 8)), np.ones((5, 8), dtype=bool),
                                     (1, 2, 8, 16))
        np.testing.assert_array_equal(rates, 1.0)
        assert got == dict.fromkeys((1, 2, 8, 16), 1.0)

    def test_k1_is_raw_mean(self):
        theta, masks = eval_population(unsolvable=0.25)
        got, rates = evaluate_policy(theta, masks, [1])
        assert rates.tobytes() == population_pass_rates(theta, masks).tobytes()
        assert got == {1: prompt_order_mean(rates.tolist())}

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_bootstrap_converges_to_with_replacement_formula(self, q, k):
        # a best-of-k bootstrap over a prompt's rollouts converges to
        # 1 - (1 - q)^k; the exact evaluation is that limit. Uniform logits
        # over 10 responses, 10 q of them correct, give a rate within an ulp
        # of q
        masks = np.arange(10) < round(10 * q)
        got, rates = evaluate_policy(np.zeros((1, 10)), masks[None], [k])
        assert abs(rates[0] - q) <= 1e-15
        assert got == {k: with_replacement(float(rates[0]), k)}

    @given(rates=st.lists(st.floats(0, 1), min_size=1, max_size=20),
           k=st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_accuracy_at_k1_and_closed_form_above(self, rates, k):
        got = _pass_at_k_of_rates(np.array(rates), k)
        assert got.tolist() == [with_replacement(q, k) for q in rates]

    def test_exact_with_replacement_matches_formula(self):
        # one prompt, two correct responses of five at uniform logits: p = 0.4
        masks = np.array([[True, True, False, False, False]])
        got, rates = evaluate_policy(np.zeros((1, 5)), masks, [3])
        assert rates.tolist() == [0.4]
        assert got == {3: 1 - 0.6 ** 3}

    def test_nondecreasing_in_k(self):
        theta, masks = eval_population(unsolvable=0.25)
        got, _ = evaluate_policy(theta, masks, range(1, 65))
        values = list(got.values())
        assert list(got) == list(range(1, 65))
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestBooleanPool:
    def test_non_boolean_masks_rejected(self):
        theta, masks = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match="boolean"):
            evaluate_policy(theta, masks.astype(np.int64), [1, 2])


class TestEvaluatePolicy:
    K_LIST = (1, 2, 5, 16)

    def test_matches_pass_at_k_on_every_pool(self):
        # every prompt's exact rate scores its own pass@k, and the prompts'
        # scores are summed in prompt order
        theta, masks = eval_population(unsolvable=0.25)
        got, rates = evaluate_policy(theta, masks, self.K_LIST)
        exact = population_pass_rates(theta, masks).tolist()
        assert rates.tolist() == exact
        assert 0.0 in exact and len(set(exact)) > 3
        assert got == {k: prompt_order_mean([with_replacement(q, k) for q in exact])
                       for k in self.K_LIST}

    @given(k_list=st.sets(st.integers(1, 10**6), min_size=1), scale=st.floats(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_mean_is_the_prompt_order_mean_over_the_rates(self, k_list, scale):
        theta, masks = eval_population(unsolvable=0.25)
        passk, rates = evaluate_policy(theta * scale, masks, k_list)
        assert list(passk) == sorted(k_list)
        for k, mean in passk.items():
            assert mean == prompt_order_mean([with_replacement(q, k) for q in rates.tolist()])

    def test_all_unsolvable_population(self):
        theta, masks = eval_population(unsolvable=0.0)
        masks = np.zeros_like(masks)
        got, rates = evaluate_policy(theta, masks, self.K_LIST)
        assert got == dict.fromkeys(self.K_LIST, 0.0)
        np.testing.assert_array_equal(rates, 0.0)

    @pytest.mark.parametrize("masks_shape", [(12, 5), (11, 6), (12,)])
    def test_shape_mismatch_rejected(self, masks_shape):
        theta, _ = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match="equal shape"):
            evaluate_policy(theta, np.zeros(masks_shape, dtype=bool), [1, 2])

    def test_one_dimensional_theta_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            evaluate_policy(np.zeros(6), np.zeros(6, dtype=bool), [1, 2])

    def test_k_below_one_rejected(self):
        theta, masks = eval_population(unsolvable=0.25)
        with pytest.raises(ValueError, match=">= 1"):
            evaluate_policy(theta, masks, [0, 2])


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
