"""Evaluation metrics: bootstrap pass@k and difficulty buckets.

Every estimator reads one prompt's rollout pool: a 1-d boolean array, true
where a sampled response was correct. pass@1 is the raw mean accuracy. For
k >= 2, pass@k draws best-of-k bootstrap resamples with replacement from the
pool (1000 by default) and reports the fraction of resamples containing at
least one correct answer; as the resample count grows this converges to
1 - (1 - q)^k for a pool with empirical accuracy q. An exact
without-replacement estimator is provided for cross-checking.

``evaluate_policy`` evaluates a sequence of policies in one pass. Prompt i's
generator, seeded by (seed, i), draws the r uniforms that every policy's pool
of prompt i reads, then one (resamples, k) index draw per k >= 2 in ascending
k, which :func:`pass_at_k` applies to every live pool of the prompt at once,
eight pools to a bit table. Neither draw depends on the policy, so each
policy's numbers are the same bits as when it is evaluated alone. A pool that is all wrong or all right, where
every resample reads the same, scores its mean without reading the draws, and
a prompt none of whose pools is live draws no resamples at all; that
prompt's generator serves nothing else, so the reported numbers are the same
as when every pool is resampled.
"""

from __future__ import annotations

import math

import numpy as np

from .ioutil import write_csv
from .kernels import sample_responses
from .passrate import softmax

__all__ = [
    "pass_at_k",
    "pass_at_k_exact_with_replacement",
    "pass_at_k_exact_without_replacement",
    "difficulty_histogram",
    "PASSK_CSV_HEADER",
    "BUCKET_CSV_HEADER",
    "write_passk_csv",
    "write_bucket_csv",
    "evaluate_policy",
]


def _pool_size(pool: np.ndarray, k: int, block: bool = False) -> int:
    """Size of a valid pool for pass@k; rejects a non-boolean pool and k
    outside [1, size]. With ``block`` a 2-d array of pools, one per row, is
    valid too."""
    ndims = (1, 2) if block else (1,)
    if not isinstance(pool, np.ndarray) or pool.dtype != bool or pool.ndim not in ndims:
        raise ValueError("a rollout pool must be a 1-d boolean array"
                         + (" (or a 2-d block of them)" if block else ""))
    r = pool.shape[-1]
    if not 1 <= k <= r:
        raise ValueError(f"k must satisfy 1 <= k <= {r}, got {k}")
    return r


# below this many draws the checks and the two calls of the raw-word path cost
# more than they save (about 4,000 draws on a 2-core x86-64 VM, numpy 2.4)
_RAW_DRAW_FLOOR = 4096
# draws shifted out of one block of raw words: the words' buffer stays at
# 128 KiB however large the draw
_RAW_DRAW_BLOCK = 2**15


def _draw_indices(rng: np.random.Generator, r: int, n: int) -> np.ndarray:
    """``rng.integers(0, r, size=n)``: the same values and dtype, and the same
    generator state after the call.

    For a power-of-two r, numpy's 32-bit Lemire draw never rejects: draw i is
    the top log2(r) bits of the i-th 32-bit half of the PCG64 output stream,
    low half first. So all but the last two draws are shifted out of raw
    64-bit words, a block at a time, and the last two go through
    ``integers``, which leaves the buffered high half word in the state that
    ``integers`` itself would. Any other generator or range, an odd or small
    n, or a generator that already holds a buffered half word calls
    ``integers``.
    """
    bitgen = rng.bit_generator
    if (type(bitgen) is not np.random.PCG64 or not 2 <= r <= 2**32 or r & (r - 1)
            or n % 2 or n < _RAW_DRAW_FLOOR or bitgen.state["has_uint32"]):
        return rng.integers(0, r, size=n)
    out = np.empty(n, dtype=np.int64)
    shift = 33 - int(r).bit_length()
    for lo in range(0, n - 2, _RAW_DRAW_BLOCK):
        block = out[lo:min(lo + _RAW_DRAW_BLOCK, n - 2)]
        halves = bitgen.random_raw(len(block) // 2).astype("<u8", copy=False).view("<u4")
        np.right_shift(halves, shift, out=block)
    out[-2:] = rng.integers(0, r, size=2)
    return out


def pass_at_k(pool: np.ndarray, k: int, resamples: int = 1000,
              rng: np.random.Generator | None = None):
    """Bootstrap probability that a best-of-k draw from the pool contains a
    correct answer.

    ``pool`` may also be a 2-d block of pools, one per row: every row is scored
    against the same (resamples, k) index draw, so row j gets the value the
    1-d call on row j gets from an identically seeded generator. A 1-d pool
    returns a float, a block an array with one value per row.
    """
    r = _pool_size(pool, k, block=True)
    rows = pool.reshape(-1, r)
    if k == 1:
        rates = rows.mean(axis=1)
    else:
        if resamples < 1:
            raise ValueError("resamples must be >= 1")
        if rng is None:
            rng = np.random.default_rng()
        idx = _draw_indices(rng, r, resamples * k).reshape(resamples, k)
        # bit s of table[g, j] is response j of pool 8g + s, so one gather and
        # one OR over each resample's k responses score eight pools at once
        table = np.packbits(rows, axis=0, bitorder="little")
        hits = np.bitwise_or.reduce(np.take(table, idx, axis=-1), axis=-1)
        counts = np.count_nonzero(np.unpackbits(hits, axis=0, count=len(rows),
                                                bitorder="little"), axis=-1)
        rates = counts / resamples
    return rates if pool.ndim == 2 else float(rates[0])


def pass_at_k_exact_with_replacement(pool: np.ndarray, k: int) -> float:
    """Limit of the bootstrap estimator: 1 - (1 - q)^k at empirical accuracy q."""
    _pool_size(pool, k)
    return 1.0 - (1.0 - float(pool.mean())) ** k


def pass_at_k_exact_without_replacement(pool: np.ndarray, k: int) -> float:
    """Combinatorial estimator 1 - C(R - c, k) / C(R, k) over distinct rollouts."""
    r = _pool_size(pool, k)
    return 1.0 - math.comb(r - int(np.count_nonzero(pool)), k) / math.comb(r, k)


def difficulty_histogram(pass_rates) -> dict[str, int]:
    """Bucket counts, in this key order: unsolvable (p = 0), hard
    (0 < p <= 1/2), medium (1/2 < p < 1), easy (p = 1). A rate outside
    [0, 1], nan included, is rejected."""
    rates = np.asarray(pass_rates, dtype=np.float64).ravel()
    if not np.all((rates >= 0) & (rates <= 1)):
        raise ValueError("pass rates must lie in [0, 1]")
    return {
        "unsolvable": int((rates == 0.0).sum()),
        "hard": int(((rates > 0.0) & (rates <= 0.5)).sum()),
        "medium": int(((rates > 0.5) & (rates < 1.0)).sum()),
        "easy": int((rates == 1.0).sum()),
    }


PASSK_CSV_HEADER = ("scheme", "k", "mean_pass_at_k")
BUCKET_CSV_HEADER = ("scheme", "bucket", "count")


def _write_scheme_tables(path, header, tables) -> None:
    """One (label, key, value) row per entry of ``tables``, a mapping of
    scheme label to its {key: value} table, in mapping order."""
    labels, keys, values = [], [], []
    for label, table in tables.items():
        labels += [label] * len(table)
        keys += table.keys()
        values += table.values()
    write_csv(path, header, (labels, keys, values))


def write_passk_csv(path, passk_by_scheme) -> None:
    """passk_by_scheme: {scheme label: {k: mean pass@k}}, written in ascending k."""
    _write_scheme_tables(path, PASSK_CSV_HEADER, {
        label: {k: passk[k] for k in sorted(passk)} for label, passk in passk_by_scheme.items()
    })


def write_bucket_csv(path, buckets_by_scheme) -> None:
    """buckets_by_scheme: {scheme label: :func:`difficulty_histogram` counts}."""
    _write_scheme_tables(path, BUCKET_CSV_HEADER, buckets_by_scheme)


# uniforms per sampling call in evaluate_policy: a block of prompts, not all
# of them, so the pools' working memory stays bounded at any P
_POOL_BLOCK_ENTRIES = 2**13


def _rollout_pools(cums: list[np.ndarray], correct_masks: np.ndarray, r: int, seed: int):
    """Yield each prompt's (S, r) block of boolean pools, one row per policy,
    with the prompt's generator.

    Prompt i's generator, seeded by (seed, i), first draws the r uniforms that
    all S policies' pools read and then serves the prompt's resamples. The
    pools of a block of prompts are sampled in one kernel call per policy.
    """
    block = max(1, _POOL_BLOCK_ENTRIES // r)
    for lo in range(0, len(correct_masks), block):
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                for i in range(lo, min(lo + block, len(correct_masks)))]
        uniforms = np.empty((len(rngs), r))
        for row, rng in zip(uniforms, rngs):
            rng.random(out=row)
        masks = correct_masks[lo:lo + block]
        pools = np.stack([np.take_along_axis(masks, sample_responses(cum[lo:lo + block], uniforms),
                                             axis=1) for cum in cums], axis=1)
        yield from zip(pools, rngs)


def evaluate_policy(thetas, correct_masks: np.ndarray, r: int, k_list, resamples: int,
                    seed: int) -> list[tuple[dict[int, float], np.ndarray]]:
    """Mean pass@k across prompts plus the empirical pass-rate vector, for
    each policy in ``thetas``, in order.

    Each prompt gets an independent rollout pool per policy, read off its row
    of the boolean ``correct_masks``, and independent bootstrap resamples, both
    from one generator seeded per prompt for reproducibility and shared by
    every policy. A pool that is all wrong or all right scores its mean at
    every k without reading resamples. A policy's numbers do not depend on
    which other policies are evaluated beside it.
    """
    correct_masks = np.asarray(correct_masks)
    if len(thetas) == 0:
        raise ValueError("evaluate_policy needs at least one policy")
    for theta in thetas:
        if theta.ndim != 2 or correct_masks.shape != theta.shape:
            raise ValueError(
                f"theta and correct_masks must be 2-d of equal shape, got {theta.shape} "
                f"and {correct_masks.shape}"
            )
    if correct_masks.dtype != bool:
        raise ValueError(f"correct_masks must be boolean, got {correct_masks.dtype}")
    n_prompts = correct_masks.shape[0]
    k_list = sorted(set(int(k) for k in k_list))
    if any(k < 1 or k > r for k in k_list):
        raise ValueError(f"every k must lie in [1, {r}]")
    if resamples < 1 and any(k >= 2 for k in k_list):
        raise ValueError(f"resamples must be >= 1 for k >= 2, got {resamples}")
    cums = [np.cumsum(softmax(theta), axis=1) for theta in thetas]
    # per-policy sums over prompts, accumulated in prompt order
    totals = np.zeros((len(thetas), len(k_list)))
    emp_rates = np.empty((len(thetas), n_prompts))
    for i, (pools, rng) in enumerate(_rollout_pools(cums, correct_masks, r, seed)):
        emp_rates[:, i] = q = pools.mean(axis=1)
        scores = np.repeat(q[:, None], len(k_list), axis=1)
        live = (q != 0.0) & (q != 1.0)
        if live.any():
            live_pools = pools[live]
            for j, k in enumerate(k_list):
                if k >= 2:  # pass@1 is the pool mean, already in scores
                    scores[live, j] = pass_at_k(live_pools, k, resamples=resamples, rng=rng)
        totals += scores
    return [({k: float(total) / n_prompts for k, total in zip(k_list, row)}, rates)
            for row, rates in zip(totals, emp_rates)]
