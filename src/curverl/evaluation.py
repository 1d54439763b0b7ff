"""Evaluation metrics: bootstrap pass@k and difficulty buckets.

Every estimator reads one prompt's rollout pool: a 1-d boolean array, true
where a sampled response was correct. pass@1 is the raw mean accuracy. For
k >= 2, pass@k draws best-of-k bootstrap resamples with replacement from the
pool (1000 by default) and reports the fraction of resamples containing at
least one correct answer; as the resample count grows this converges to
1 - (1 - q)^k for a pool with empirical accuracy q. An exact
without-replacement estimator is provided for cross-checking.

``evaluate_policy`` samples every prompt's pool in one
:func:`curverl.kernels.sample_responses` call and draws no resamples for a pool
that is all wrong or all right, where every resample reads the same; that
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


def _pool_size(pool: np.ndarray, k: int) -> int:
    """Size of a valid pool for pass@k; rejects a non-boolean pool and k
    outside [1, size]."""
    if not isinstance(pool, np.ndarray) or pool.dtype != bool or pool.ndim != 1:
        raise ValueError("a rollout pool must be a 1-d boolean array")
    if not 1 <= k <= pool.size:
        raise ValueError(f"k must satisfy 1 <= k <= {pool.size}, got {k}")
    return pool.size


def pass_at_k(pool: np.ndarray, k: int, resamples: int = 1000,
              rng: np.random.Generator | None = None) -> float:
    """Bootstrap probability that a best-of-k draw from the pool contains a
    correct answer."""
    r = _pool_size(pool, k)
    if k == 1:
        return float(pool.mean())
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    idx = rng.integers(0, r, size=(resamples, k))
    return np.count_nonzero(np.take(pool, idx).any(axis=1)) / resamples


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
    (0 < p <= 1/2), medium (1/2 < p < 1), easy (p = 1)."""
    rates = np.asarray(pass_rates, dtype=np.float64).ravel()
    if np.any((rates < 0) | (rates > 1)):
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


def _rollout_pools(cum: np.ndarray, correct_masks: np.ndarray, r: int, seed: int):
    """Yield each prompt's boolean pool of r rollouts with its generator.

    Prompt i's generator, seeded by (seed, i), first draws the pool's r
    uniforms and then serves the prompt's resamples. The pools of a block of
    prompts are sampled in one kernel call.
    """
    block = max(1, _POOL_BLOCK_ENTRIES // r)
    for lo in range(0, len(cum), block):
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                for i in range(lo, min(lo + block, len(cum)))]
        uniforms = np.empty((len(rngs), r))
        for row, rng in zip(uniforms, rngs):
            rng.random(out=row)
        responses = sample_responses(cum[lo:lo + block], uniforms)
        yield from zip(np.take_along_axis(correct_masks[lo:lo + block], responses, axis=1), rngs)


def evaluate_policy(theta: np.ndarray, correct_masks: np.ndarray, r: int,
                    k_list, resamples: int, seed: int) -> tuple[dict[int, float], np.ndarray]:
    """Mean pass@k across prompts plus the empirical pass-rate vector.

    Each prompt gets an independent rollout pool, read off its row of the
    boolean ``correct_masks``, and independent bootstrap resamples, both from
    one generator seeded per prompt for reproducibility. A pool that is all
    wrong or all right scores its mean at every k without drawing resamples.
    """
    correct_masks = np.asarray(correct_masks)
    if theta.ndim != 2 or correct_masks.shape != theta.shape:
        raise ValueError(
            f"theta and correct_masks must be 2-d of equal shape, got {theta.shape} "
            f"and {correct_masks.shape}"
        )
    if correct_masks.dtype != bool:
        raise ValueError(f"correct_masks must be boolean, got {correct_masks.dtype}")
    n_prompts = theta.shape[0]
    k_list = sorted(set(int(k) for k in k_list))
    if any(k < 1 or k > r for k in k_list):
        raise ValueError(f"every k must lie in [1, {r}]")
    if resamples < 1 and any(k >= 2 for k in k_list):
        raise ValueError(f"resamples must be >= 1 for k >= 2, got {resamples}")
    probs = softmax(theta)
    cum = np.cumsum(probs, axis=1)
    totals = {k: 0.0 for k in k_list}
    emp_rates = np.empty(n_prompts)
    for i, (pool, rng) in enumerate(_rollout_pools(cum, correct_masks, r, seed)):
        emp_rates[i] = q = float(pool.mean())
        constant = q == 0.0 or q == 1.0
        for k in k_list:
            totals[k] += q if constant else pass_at_k(pool, k, resamples=resamples, rng=rng)
    return {k: totals[k] / n_prompts for k in k_list}, emp_rates
