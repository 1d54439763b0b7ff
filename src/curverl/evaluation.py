"""Evaluation metrics: pass@k and difficulty buckets.

Every pass rate in this lab is closed-form, so a policy's pass@k is exact:
prompt i with pass rate p_i is solved by k independent responses with
probability 1 - (1 - p_i)^k, and the policy's pass@k is the mean of that
over prompts (the pass@k of Chen et al. 2021, with no sampling error).
pass@1 is the mean pass rate.

``evaluate_policy`` reads the rates through
:func:`curverl.passrate.population_pass_rates`, the trainer's own path, so
the buckets and pass@1 describe the policy the trainer logs.
"""

from __future__ import annotations

import numpy as np

from .ioutil import write_csv
from .passrate import population_pass_rates

__all__ = [
    "difficulty_histogram",
    "PASSK_CSV_HEADER",
    "BUCKET_CSV_HEADER",
    "write_passk_csv",
    "write_bucket_csv",
    "evaluate_policy",
]


def _pass_at_k_of_rates(rates: np.ndarray, k: int) -> np.ndarray:
    """pass@k of prompts with pass rates ``rates``: the rates themselves at
    k = 1, else 1 - (1 - p)^k."""
    if k == 1:
        return rates
    # Python's float power: numpy's vectorized power differs from it in the
    # last bit on some rates, and on which ones depends on the CPU
    return 1.0 - np.fromiter(((1.0 - q) ** k for q in rates.tolist()), np.float64, rates.size)


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


def evaluate_policy(theta: np.ndarray, correct_masks: np.ndarray,
                    k_list) -> tuple[dict[int, float], np.ndarray]:
    """Exact mean pass@k across prompts, by ascending k, and the exact
    pass-rate vector of the policy with (P, M) logits ``theta`` on the
    boolean ``correct_masks``.

    Each mean sums the prompts' pass@k left to right, in prompt order, and
    divides by P.
    """
    correct_masks = np.asarray(correct_masks)
    if theta.ndim != 2 or correct_masks.shape != theta.shape:
        raise ValueError(
            f"theta and correct_masks must be 2-d of equal shape, got {theta.shape} "
            f"and {correct_masks.shape}"
        )
    if correct_masks.dtype != bool:
        raise ValueError(f"correct_masks must be boolean, got {correct_masks.dtype}")
    k_list = sorted(set(int(k) for k in k_list))
    if any(k < 1 for k in k_list):
        raise ValueError("every k must be >= 1")
    rates = population_pass_rates(theta, correct_masks)
    # np.sum's pairwise order would move the last bits
    return ({k: float(np.add.accumulate(_pass_at_k_of_rates(rates, k))[-1]) / len(rates)
             for k in k_list}, rates)
