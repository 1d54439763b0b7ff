"""Hot training-step kernels: categorical rollout sampling and per-prompt
score-function gradient accumulation, in numpy.

Randomness is drawn by the caller, so a kernel is a pure function of its
arrays and training stays deterministic.

Both kernels take arrays from a softmax: ``cum`` is a row-wise cumulative sum
of nonnegative probabilities, so every row of it is nondecreasing. The
sampler relies on that; neither kernel forms a (B, N, M) array, so a step
costs O(B·N·log M) to sample and, in cache-sized row blocks, 2·B·M
multiplies plus B·N·M adds to accumulate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_responses", "accumulate_gradients"]

# rows per gradient block: about 2**15 float64 entries of ``probs``, a 256 KB
# tile, whose table of products is twice that
_BLOCK_ENTRIES = 2**15


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
    exactly on its length, the count above.
    """
    n_prompts, m = cum.shape
    rounds = (m - 1).bit_length()
    width = 1 << rounds
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
    """Per-prompt sum_i c_i * (onehot(y_i) - probs), accumulated one rollout
    at a time, where c_i = coeff[b, rewards[b, i]].

    With binary rewards and a per-prompt baseline a rollout's coefficient
    takes one of two values per prompt, so ``rewards`` is the (B, N) bool
    array and ``coeff`` is (B, 2): column 0 for a wrong rollout, column 1 for
    a correct one.

    Training artifacts depend on this operation order bit for bit: every
    entry starts at 0, then for i = 0, 1, ... adds (-c_i) * probs and, at
    column y_i, adds c_i. A product (-c) * p is the same whichever rollout
    it is computed for, so each row block first builds its two product rows
    per prompt once, as a (2k, M) table, and rollout i then adds the table
    rows it selects. The loop runs over row blocks of about 2**15 entries
    so that a block stays in cache across all N rollouts; rows are
    independent, so blocking changes which rows share a numpy call but not
    any entry's sequence of operations. No row is skipped, not even one whose
    coefficients are all zero: 0 * NaN is NaN, and a NaN ``probs`` row must
    reach the result.
    """
    n_prompts, m = probs.shape
    if rewards.dtype != np.bool_ or rewards.shape != responses.shape:
        raise ValueError(f"rewards must be a bool array of the responses' shape "
                         f"{responses.shape}, got {rewards.dtype} {rewards.shape}")
    if coeff.shape != (n_prompts, 2):
        raise ValueError(f"coeff must have shape ({n_prompts}, 2), got {coeff.shape}")
    out = np.zeros((n_prompts, m))
    flat = out.reshape(-1)
    # rollout-major copies, so that rollout i's rewards and flat indices into
    # ``out`` are contiguous
    right = np.ascontiguousarray(rewards.T)
    at = np.ascontiguousarray((responses + np.arange(n_prompts)[:, None] * m).T)
    neg = -coeff
    block = max(1, _BLOCK_ENTRIES // m)
    table = np.empty((2 * min(block, n_prompts), m))
    for lo in range(0, n_prompts, block):
        hi = min(lo + block, n_prompts)
        k = hi - lo
        acc, products = out[lo:hi], table[:2 * k]
        # row r * k + j of the table, like entry r * k + j of coeff's stacked
        # columns, is prompt lo + j's for reward r; sel[i] picks rollout i's
        np.multiply(probs[lo:hi], neg[lo:hi, :1], out=products[:k])
        np.multiply(probs[lo:hi], neg[lo:hi, 1:], out=products[k:])
        sel = right[:, lo:hi] * k + np.arange(k)
        added = coeff[lo:hi].T.ravel().take(sel)
        for i in range(responses.shape[1]):
            acc += products.take(sel[i], axis=0)
            flat[at[i, lo:hi]] += added[i]
    return out
