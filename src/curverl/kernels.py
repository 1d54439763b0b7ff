"""Hot training-step kernels: categorical rollout sampling and per-prompt
score-function gradient accumulation, in numpy.

Randomness is drawn by the caller, so a kernel is a pure function of its
arrays and training stays deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_responses", "accumulate_gradients"]


def sample_responses(cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical sampling, one row of ``cum`` per prompt.

    response = #{j : u >= cum[j]}, capped at M - 1 (guards the case where
    roundoff leaves cum[-1] a hair under 1).
    """
    counts = (uniforms[:, :, None] >= cum[:, None, :]).sum(axis=2)
    return np.minimum(counts, cum.shape[1] - 1).astype(np.int64)


def accumulate_gradients(probs: np.ndarray, responses: np.ndarray,
                         coeff: np.ndarray) -> np.ndarray:
    """Per-prompt sum_i coeff_i * (onehot(y_i) - probs), accumulated one
    rollout at a time. Training artifacts depend on this operation order bit
    for bit, so a faster form must keep it."""
    n_prompts, m = probs.shape
    out = np.zeros((n_prompts, m))
    rows = np.arange(n_prompts)
    for i in range(responses.shape[1]):
        c = coeff[:, i]
        out += (-c)[:, None] * probs
        out[rows, responses[:, i]] += c
    return out
