"""The step kernels must match naive loop oracles bit for bit."""

import numpy as np
import pytest

from curverl import kernels
from curverl.kernels import accumulate_gradients, sample_responses


def make_inputs(rng, n_prompts, m, n):
    """probs, cum, uniforms, (B, N) bool rewards and a (B, 2) coefficient table."""
    logits = rng.standard_normal((n_prompts, m)) * 2.0
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    uniforms = rng.random((n_prompts, n))
    rewards = rng.random((n_prompts, n)) < 0.5
    coeff = rng.standard_normal((n_prompts, 2))
    return probs, cum, uniforms, rewards, coeff


def per_rollout(coeff, rewards):
    """The (B, N) coefficients c_i = coeff[b, rewards[b, i]]."""
    return np.take_along_axis(coeff, rewards.astype(np.intp), axis=1)


def naive_sample(cum, uniforms):
    n_prompts, n = uniforms.shape
    m = cum.shape[1]
    out = np.empty((n_prompts, n), dtype=np.int64)
    for b in range(n_prompts):
        for i in range(n):
            j = 0
            while j < m - 1 and uniforms[b, i] >= cum[b, j]:
                j += 1
            out[b, i] = j
    return out


def naive_accumulate(probs, responses, coeff):
    """The oracle, on per-rollout (B, N) coefficients: per row, add each c_i
    at column y_i and into the row's sum S, both from 0.0 in rollout order,
    then subtract S * probs."""
    n_prompts, m = probs.shape
    out = np.zeros((n_prompts, m))
    for b in range(n_prompts):
        s = 0.0
        for i in range(responses.shape[1]):
            out[b, responses[b, i]] += coeff[b, i]
            s += coeff[b, i]
        for j in range(m):
            out[b, j] -= s * probs[b, j]
    return out


def sequential_accumulate(probs, responses, coeff):
    """The rollout-at-a-time order that training used before the scatter:
    per rollout, add (-c_i) * probs, then c_i at column y_i."""
    n_prompts, m = probs.shape
    out = np.zeros((n_prompts, m))
    for b in range(n_prompts):
        for i in range(responses.shape[1]):
            c = coeff[b, i]
            out[b] += (-c) * probs[b]
            out[b, responses[b, i]] += c
    return out


def check_accumulation(probs, responses, rewards, coeff):
    """The kernel's result, after checking it against the oracle bit for bit."""
    out = accumulate_gradients(probs, responses, rewards, coeff)
    want = naive_accumulate(probs, responses, per_rollout(coeff, rewards))
    assert out.shape == want.shape
    np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
    return out


SHAPES = [(1, 2, 1), (3, 16, 8), (64, 16, 8), (17, 5, 3)]


class TestFallbackCorrectness:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_sampling_matches_naive(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        probs, cum, uniforms, _, _ = make_inputs(rng, *shape)
        np.testing.assert_array_equal(sample_responses(cum, uniforms),
                                      naive_sample(cum, uniforms))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_accumulation_matches_naive(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, *shape)
        check_accumulation(probs, naive_sample(cum, uniforms), rewards, coeff)

    def test_sampling_distribution_is_correct(self):
        # frequencies of a 3-way categorical within 4 sigma
        rng = np.random.default_rng(0)
        probs = np.array([[0.2, 0.5, 0.3]])
        cum = np.cumsum(probs, axis=1)
        uniforms = rng.random((1, 200_000))
        responses = sample_responses(cum, uniforms)
        freq = np.bincount(responses[0], minlength=3) / responses.shape[1]
        for j in range(3):
            sigma = np.sqrt(probs[0, j] * (1 - probs[0, j]) / responses.shape[1])
            assert abs(freq[j] - probs[0, j]) < 4 * sigma



def cdf_rows(rng, n_prompts, m):
    return np.cumsum(make_inputs(rng, n_prompts, m, 1)[0], axis=1)


class TestSamplerEdges:
    """The binary search must equal the capped count wherever the table
    width 2**k, the plateaus or the last CDF entry could trip it."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 16, 17, 255, 256, 257])
    def test_widths_around_powers_of_two(self, m):
        rng = np.random.default_rng(m)
        cum = cdf_rows(rng, 6, m)
        uniforms = rng.random((6, 40))
        np.testing.assert_array_equal(sample_responses(cum, uniforms), naive_sample(cum, uniforms))

    @pytest.mark.parametrize("m", [2, 5, 16, 17])
    def test_uniforms_on_cdf_steps_and_zero(self, m):
        rng = np.random.default_rng(100 + m)
        cum = cdf_rows(rng, 4, m)
        # every CDF entry itself, plus u = 0; u == cum[j] counts entry j
        uniforms = np.concatenate([cum, np.zeros((4, 1))], axis=1)
        out = sample_responses(cum, uniforms)
        np.testing.assert_array_equal(out, naive_sample(cum, uniforms))
        assert np.all(out[:, -1] == 0)

    def test_zero_probability_plateaus(self):
        probs = np.array([
            [0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25],
            [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        cum = np.cumsum(probs, axis=1)
        # plateau values, just below and above them, and random draws
        planted = np.unique(np.concatenate([cum.ravel(), np.nextafter(cum.ravel(), -1.0)]))
        planted = planted[(planted >= 0.0) & (planted < 1.0)]
        uniforms = np.concatenate([np.tile(planted, (3, 1)),
                                   np.random.default_rng(7).random((3, 64))], axis=1)
        out = sample_responses(cum, uniforms)
        np.testing.assert_array_equal(out, naive_sample(cum, uniforms))
        # a zero-probability response is never drawn
        assert np.all(np.take_along_axis(probs, out, axis=1) > 0.0)

    @pytest.mark.parametrize("m", [2, 16, 256])
    def test_last_entry_under_one(self, m):
        rng = np.random.default_rng(m + 1)
        cum = cdf_rows(rng, 3, m)
        cum[:, -1] = np.nextafter(1.0, 0.0) - 4 * np.finfo(float).eps
        between = np.nextafter(cum[:, -1:], 1.0)
        uniforms = np.concatenate([between, np.full((3, 1), np.nextafter(1.0, 0.0))], axis=1)
        out = sample_responses(cum, uniforms)
        np.testing.assert_array_equal(out, naive_sample(cum, uniforms))
        assert np.all(out == m - 1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 16, 17, 256])
    def test_equals_the_capped_count_and_never_reads_the_last_column(self, m):
        # at M = 2**k the search runs on cum itself, elsewhere on a padded
        # copy of its first M - 1 columns; both must be the brute-force
        # min(#{j : cum[j] <= u}, M - 1)
        rng = np.random.default_rng(300 + m)
        cum = cdf_rows(rng, 4, m)
        cum[0, -1] = np.nextafter(1.0, 0.0) - 4 * np.finfo(float).eps
        last = cum[:, -2:-1]
        # random draws, every cum entry itself, draws at and past cum[M - 2],
        # and one between a last entry under 1 and 1
        uniforms = np.concatenate([
            rng.random((4, 16)), cum, last, np.nextafter(last, 1.0),
            last + (1.0 - last) * rng.random((4, 8)),
            np.full((4, 1), np.nextafter(1.0, 0.0)),
        ], axis=1)
        want = np.minimum((cum[:, None, :] <= uniforms[:, :, None]).sum(axis=2), m - 1)
        np.testing.assert_array_equal(sample_responses(cum, uniforms), want)
        assert np.any(want == m - 1)
        garbled = cum.copy()
        garbled[:, -1] = np.nan
        np.testing.assert_array_equal(sample_responses(garbled, uniforms), want)

    def test_wide_call_forms_no_dense_compare(self):
        # a (B, N, M) boolean array at (512, 64, 256) alone is 8 MB
        import tracemalloc

        rng = np.random.default_rng(3)
        cum = cdf_rows(rng, 512, 256)
        uniforms = rng.random((512, 64))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sample_responses(cum, uniforms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestAccumulationEdges:
    def test_ragged_last_block(self):
        # two full row blocks at M = 256 and a last one of 44 rows
        block = kernels._BLOCK_ENTRIES // 256
        rng = np.random.default_rng(300)
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, 2 * block + 44, 256, 6)
        check_accumulation(probs, naive_sample(cum, uniforms), rewards, coeff)

    @pytest.mark.parametrize("correct", [False, True])
    def test_rows_all_wrong_or_all_correct(self, correct):
        # every rollout of a row picks the same coefficient column
        rng = np.random.default_rng(11)
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, 9, 16, 8)
        rewards[::2] = correct
        check_accumulation(probs, naive_sample(cum, uniforms), rewards, coeff)

    def test_signed_zero_coefficients(self):
        rng = np.random.default_rng(12)
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, 4, 8, 8)
        coeff[:] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]]
        out = check_accumulation(probs, naive_sample(cum, uniforms), rewards, coeff)
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("shape", [(7, 2, 1), (1, 2, 1), (5, 2, 9), (6, 33, 1)])
    def test_two_responses_or_one_rollout(self, shape):
        rng = np.random.default_rng(sum(shape))
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, *shape)
        check_accumulation(probs, naive_sample(cum, uniforms), rewards, coeff)

    def test_nan_row_with_zero_coefficients_stays_nan(self):
        # an all-zero coefficient row still adds 0 * probs, so a NaN policy
        # row reaches the gradient (and the trainer's norm check)
        rng = np.random.default_rng(9)
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, 5, 8, 4)
        probs[2] = np.nan
        coeff[2] = 0.0
        out = check_accumulation(probs, naive_sample(cum, uniforms), rewards, coeff)
        assert np.isnan(out[2]).all()
        assert np.isfinite(np.delete(out, 2, axis=0)).all()

    @pytest.mark.parametrize("rewards", [
        np.ones((3, 4)), np.ones((3, 4), dtype=np.int64),
        np.ones((3, 5), dtype=bool), np.ones((4, 3), dtype=bool),
    ])
    def test_bad_rewards_rejected(self, rewards):
        rng = np.random.default_rng(13)
        probs, cum, uniforms, _, coeff = make_inputs(rng, 3, 8, 4)
        with pytest.raises(ValueError, match="rewards"):
            accumulate_gradients(probs, sample_responses(cum, uniforms), rewards, coeff)

    @pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2), (3, 2, 1)])
    def test_bad_coeff_rejected(self, shape):
        rng = np.random.default_rng(14)
        probs, cum, uniforms, rewards, _ = make_inputs(rng, 3, 8, 4)
        with pytest.raises(ValueError, match="coeff"):
            accumulate_gradients(probs, sample_responses(cum, uniforms), rewards,
                                 np.ones(shape))

    def test_wide_call_forms_no_term_array(self):
        # an (N, B, M) float array of the per-rollout terms at (512, 256, 64)
        # would be 64 MB; the result itself is 1 MB, and any (B, M) temporary
        # beside it would take the peak past twice that
        import tracemalloc

        n_prompts, m = 512, 256
        rng = np.random.default_rng(15)
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, n_prompts, m, 64)
        responses = sample_responses(cum, uniforms)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            accumulate_gradients(probs, responses, rewards, coeff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n_prompts * m * 8


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


class TestGapToSequentialOrder:
    """The scatter form and the old rollout-at-a-time order round the same
    sum, sum_i c_i ([y_i = j] - p_j) at entry (b, j), in different orders.
    With T = sum_i |c_i| (p_j + [y_i = j]), the old order adds up to 2N
    terms from 0.0, each product rounded once, so it is within gamma_{2N} T
    of the exact sum; the scatter adds up to N terms into the entry and N
    into S, then rounds S * p_j and the subtraction once, so it is within
    gamma_{N+1} T (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.1 and 4.2). Their gap is within gamma_{3N+1} T."""

    @pytest.mark.parametrize("shape", [(256, 16, 8), (512, 256, 64)])
    def test_gap_within_the_rounding_bound(self, shape):
        rng = np.random.default_rng(sum(shape))
        probs, cum, uniforms, rewards, coeff = make_inputs(rng, *shape)
        responses = sample_responses(cum, uniforms)
        c = per_rollout(coeff, rewards)
        old = sequential_accumulate(probs, responses, c)
        new = accumulate_gradients(probs, responses, rewards, coeff)
        magnitude = np.abs(c).sum(axis=1)[:, None] * probs
        np.add.at(magnitude, (np.arange(shape[0])[:, None], responses), np.abs(c))
        assert np.all(np.abs(new - old) <= gamma(3 * shape[2] + 1) * magnitude)
