"""Evaluation metrics: pass@k and difficulty buckets.

Every estimator reads one prompt's rollout pool: a 1-d boolean array, true
where a sampled response was correct. pass@1 is the pool's accuracy q, and
pass@k for k >= 2 is the chance that k draws with replacement from the pool
hold a correct one, 1 - (1 - q)^k, computed in closed form. An exact
without-replacement estimator is provided for cross-checking.

``evaluate_policy`` evaluates a sequence of policies in one pass. Prompt i's
generator, seeded by (seed, i), draws the r uniforms that every policy's pool
of prompt i reads; pass@k then follows from each pool's accuracy, so each
policy's numbers are the same bits as when it is evaluated alone.
"""

from __future__ import annotations

import math

import numpy as np

from .ioutil import write_csv
from .kernels import sample_responses
from .passrate import softmax

__all__ = [
    "pass_at_k",
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
    r = pool.size
    if not 1 <= k <= r:
        raise ValueError(f"k must satisfy 1 <= k <= {r}, got {k}")
    return r


def _pass_at_k_of_rates(rates: np.ndarray, k: int) -> np.ndarray:
    """pass@k of pools with accuracies ``rates``: the rates themselves at
    k = 1, else 1 - (1 - q)^k."""
    if k == 1:
        return rates
    # Python's float power: numpy's vectorized power differs from it in the
    # last bit on some rates, and on which ones depends on the CPU
    misses = np.fromiter(((1.0 - q) ** k for q in rates.ravel().tolist()), np.float64, rates.size)
    return 1.0 - misses.reshape(rates.shape)


def pass_at_k(pool: np.ndarray, k: int) -> float:
    """Probability that k draws with replacement from the pool hold a correct
    answer: the accuracy q at k = 1, else 1 - (1 - q)^k."""
    _pool_size(pool, k)
    return float(_pass_at_k_of_rates(pool.mean(keepdims=True), k)[0])


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


def _empirical_rates(cums: list[np.ndarray], correct_masks: np.ndarray, r: int,
                     seed: int) -> np.ndarray:
    """(S, P) accuracies of each policy's rollout pool of each prompt.

    Prompt i's generator, seeded by (seed, i), draws the r uniforms that all
    S policies' pools read. The pools of a block of prompts are sampled in
    one kernel call per policy.
    """
    n_prompts = len(correct_masks)
    rates = np.empty((len(cums), n_prompts))
    block = max(1, _POOL_BLOCK_ENTRIES // r)
    for lo in range(0, n_prompts, block):
        hi = min(lo + block, n_prompts)
        try:
            uniforms = np.empty((hi - lo, r))
        except (MemoryError, ValueError):  # too large to map, or to index
            raise ValueError(f"rollouts={r}: a prompt's pool is too large to allocate") from None
        for i, row in enumerate(uniforms, lo):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            rng.random(out=row)
        masks = correct_masks[lo:hi]
        for cum, policy_rates in zip(cums, rates):
            pools = np.take_along_axis(masks, sample_responses(cum[lo:hi], uniforms), axis=1)
            policy_rates[lo:hi] = pools.mean(axis=1)
    return rates


def evaluate_policy(thetas, correct_masks: np.ndarray, r: int, k_list,
                    seed: int) -> list[tuple[dict[int, float], np.ndarray]]:
    """Mean pass@k across prompts plus the empirical pass-rate vector, for
    each policy in ``thetas``, in order.

    Each prompt gets an independent rollout pool of r responses per policy,
    read off its row of the boolean ``correct_masks`` from one generator
    seeded per prompt for reproducibility and shared by every policy. Each
    pool scores :func:`pass_at_k` of its accuracy, and the scores are summed
    over prompts left to right in prompt order. A policy's numbers do not
    depend on which other policies are evaluated beside it.
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
    cums = [np.cumsum(softmax(theta), axis=1) for theta in thetas]
    emp_rates = _empirical_rates(cums, correct_masks, r, seed)
    # (K, S) sums over prompts, left to right: np.sum's pairwise order would
    # move the last bits
    totals = [np.add.accumulate(_pass_at_k_of_rates(emp_rates, k), axis=1)[:, -1]
              for k in k_list]
    return [({k: float(total[s]) / n_prompts for k, total in zip(k_list, totals)}, rates)
            for s, rates in enumerate(emp_rates)]
