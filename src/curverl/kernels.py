"""Hot training-step kernels: categorical rollout sampling and per-prompt
score-function gradient accumulation, in numpy.

Randomness is drawn by the caller, so a kernel is a pure function of its
arrays and training stays deterministic.

Both kernels take arrays from a softmax: ``cum`` is a row-wise cumulative sum
of nonnegative probabilities, so every row of it is nondecreasing. The
sampler relies on that; neither kernel forms a (B, N, M) array, so a step
costs O(B·N·log M) to sample and O(B·(N + M)) to accumulate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_responses", "accumulate_gradients"]

# rows per gradient block: about 2**14 float64 entries, a 128 KB tile
_BLOCK_ENTRIES = 2**14


def sample_responses(cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical sampling, one row of ``cum`` per prompt.

    response = #{j < M - 1 : cum[j] <= u}. This is #{j : u >= cum[j]}
    capped at M - 1 (the cap guards the case where roundoff leaves cum[-1] a
    hair under 1), since dropping cum[-1] from the count can only lower it by
    one, and only when it was M.

    Rows of ``cum`` must be nondecreasing. Each row's first M - 1 entries are
    copied into a table padded with +inf to width 2**k >= M, and one
    branchless binary search runs over all (B, N) uniforms in lockstep: k
    rounds of "advance by step if the entry step - 1 ahead is <= u". On a
    nondecreasing row the entries <= u form a prefix, so the search lands
    exactly on its length, the count above. The search reads no column past
    2**k - 2, so when M is a power of two it runs on ``cum`` itself, whose
    column M - 1 it never reads, and no table is made.
    """
    n_prompts, m = cum.shape
    rounds = (m - 1).bit_length()
    width = 1 << rounds
    if width == m:
        flat = cum.ravel()
    else:
        table = np.full((n_prompts, width), np.inf)
        table[:, :m - 1] = cum[:, :m - 1]
        flat = table.ravel()
    start = np.arange(n_prompts, dtype=np.int64)[:, None] * width
    pos = np.repeat(start, uniforms.shape[1], axis=1)
    for r in range(rounds - 1, -1, -1):
        step = 1 << r
        pos += step * (flat.take(pos + (step - 1)) <= uniforms)
    pos -= start
    return pos


def accumulate_gradients(probs: np.ndarray, responses: np.ndarray, rewards: np.ndarray,
                         coeff: np.ndarray) -> np.ndarray:
    """Per-prompt sum_i c_i * (onehot(y_i) - probs), where
    c_i = coeff[b, rewards[b, i]].

    With binary rewards and a per-prompt baseline a rollout's coefficient
    takes one of two values per prompt, so ``rewards`` is the (B, N) bool
    array and ``coeff`` is (B, 2): column 0 for a wrong rollout, column 1 for
    a correct one.

    The sum is scatter(c) - S * probs with S = sum_i c_i, and training
    artifacts depend on this operation order bit for bit: in each row, every
    c_i is added at column y_i and into S, both from 0.0 in rollout order
    (one ``np.bincount`` each), and then S * probs is subtracted. Rows are
    independent, so the kernel works through cache-sized row blocks and only
    the result is as large as (B, M). No row is skipped, not even one whose
    coefficients are all zero: 0 * NaN is NaN, and a NaN ``probs`` row must
    reach the result.
    """
    n_prompts, m = probs.shape
    if rewards.dtype != np.bool_ or rewards.shape != responses.shape:
        raise ValueError(f"rewards must be a bool array of the responses' shape "
                         f"{responses.shape}, got {rewards.dtype} {rewards.shape}")
    if coeff.shape != (n_prompts, 2):
        raise ValueError(f"coeff must have shape ({n_prompts}, 2), got {coeff.shape}")
    n_rollouts = responses.shape[1]
    out = np.empty((n_prompts, m))
    block = max(1, _BLOCK_ENTRIES // m)
    for lo in range(0, n_prompts, block):
        hi = min(lo + block, n_prompts)
        k = hi - lo
        # each rollout's row in the block; 2 * row + reward picks its
        # coefficient, and row * m + response, made in place, its entry
        at = np.arange(k).repeat(n_rollouts)
        c = coeff[lo:hi].ravel().take(2 * at + rewards[lo:hi].ravel())
        total = np.bincount(at, c, minlength=k)
        at *= m
        at += responses[lo:hi].ravel()
        scatter = np.bincount(at, c, minlength=k * m).reshape(k, m)
        np.multiply(total[:, None], probs[lo:hi], out=out[lo:hi])
        np.subtract(scatter, out[lo:hi], out=out[lo:hi])
    return out
