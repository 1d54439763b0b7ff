"""The step kernels must match naive loop oracles bit for bit."""

import numpy as np
import pytest

from curverl.kernels import accumulate_gradients, sample_responses


def make_inputs(rng, n_prompts, m, n):
    logits = rng.standard_normal((n_prompts, m)) * 2.0
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    uniforms = rng.random((n_prompts, n))
    coeff = rng.standard_normal((n_prompts, n))
    return probs, cum, uniforms, coeff


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
    n_prompts, m = probs.shape
    out = np.zeros((n_prompts, m))
    for b in range(n_prompts):
        for i in range(responses.shape[1]):
            c = coeff[b, i]
            out[b] += (-c) * probs[b]
            out[b, responses[b, i]] += c
    return out


SHAPES = [(1, 2, 1), (3, 16, 8), (64, 16, 8), (17, 5, 3)]


class TestFallbackCorrectness:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_sampling_matches_naive(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        probs, cum, uniforms, _ = make_inputs(rng, *shape)
        np.testing.assert_array_equal(sample_responses(cum, uniforms),
                                      naive_sample(cum, uniforms))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_accumulation_matches_naive(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        probs, cum, uniforms, coeff = make_inputs(rng, *shape)
        responses = naive_sample(cum, uniforms)
        np.testing.assert_array_equal(accumulate_gradients(probs, responses, coeff),
                                      naive_accumulate(probs, responses, coeff))

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

