"""Evaluation metrics: bootstrap pass@k, majority voting, difficulty buckets.

pass@1 is the raw mean accuracy. For k >= 2, pass@k draws best-of-k bootstrap
resamples with replacement from the per-prompt rollout pool (1000 by default)
and reports the fraction of resamples containing at least one correct answer;
as the resample count grows this converges to 1 - (1 - q)^k for a pool with
empirical accuracy q. An exact without-replacement estimator is provided for
cross-checking.

Rewards are binary, so a resample hits when any of its draws from the pool,
read as booleans, is true. ``evaluate_policy`` draws no resamples for a pool
that is all wrong or all right, where every resample reads the same; that
prompt's generator serves nothing else, so the reported numbers are the same
as when every pool is resampled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ioutil import write_csv
from .kernels import sample_responses
from .passrate import PromptInstance, sample_rollouts, softmax

__all__ = [
    "EvalSampleSet",
    "collect_samples",
    "pass_at_k",
    "pass_at_k_exact_with_replacement",
    "pass_at_k_exact_without_replacement",
    "majority_at_k",
    "DifficultyCounts",
    "difficulty_histogram",
    "PASSK_CSV_HEADER",
    "BUCKET_CSV_HEADER",
    "write_passk_csv",
    "write_bucket_csv",
]


@dataclass(frozen=True)
class EvalSampleSet:
    """Per-prompt pool of R rollouts: binary rewards plus the raw answers."""

    prompt_id: int
    rewards: np.ndarray
    answers: np.ndarray

    def __post_init__(self) -> None:
        rewards = np.asarray(self.rewards)
        answers = np.asarray(self.answers, dtype=np.int64)
        if rewards.ndim != 1 or rewards.shape != answers.shape:
            raise ValueError("rewards and answers must be 1-d and equal length")
        if rewards.size == 0:
            raise ValueError("need at least one rollout")
        if not np.all((rewards == 0) | (rewards == 1)):
            raise ValueError(f"prompt {self.prompt_id}: rewards must be 0 or 1")
        object.__setattr__(self, "rewards", rewards.astype(np.int64))
        object.__setattr__(self, "answers", answers)

    @property
    def r(self) -> int:
        return self.rewards.shape[0]


def collect_samples(prompt: PromptInstance, r: int, rng: np.random.Generator) -> EvalSampleSet:
    """Sample an evaluation pool of r rollouts from the prompt's policy."""
    batch = sample_rollouts(prompt, r, rng)
    return EvalSampleSet(prompt_id=prompt.id, rewards=batch.rewards, answers=batch.responses)


def pass_at_k(samples: EvalSampleSet, k: int, resamples: int = 1000,
              rng: np.random.Generator | None = None) -> float:
    """Bootstrap probability that a best-of-k draw contains a correct answer."""
    if not 1 <= k <= samples.r:
        raise ValueError(f"k must satisfy 1 <= k <= {samples.r}, got {k}")
    if k == 1:
        return float(samples.rewards.mean())
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    idx = rng.integers(0, samples.r, size=(resamples, k))
    hits = np.take(samples.rewards.astype(bool), idx).any(axis=1)
    return np.count_nonzero(hits) / resamples


def pass_at_k_exact_with_replacement(samples: EvalSampleSet, k: int) -> float:
    """Limit of the bootstrap estimator: 1 - (1 - q)^k at empirical accuracy q."""
    if not 1 <= k <= samples.r:
        raise ValueError(f"k must satisfy 1 <= k <= {samples.r}, got {k}")
    q = float(samples.rewards.mean())
    return 1.0 - (1.0 - q) ** k


def pass_at_k_exact_without_replacement(samples: EvalSampleSet, k: int) -> float:
    """Combinatorial estimator 1 - C(R - c, k) / C(R, k) over distinct rollouts."""
    if not 1 <= k <= samples.r:
        raise ValueError(f"k must satisfy 1 <= k <= {samples.r}, got {k}")
    correct = int(samples.rewards.sum())
    return 1.0 - math.comb(samples.r - correct, k) / math.comb(samples.r, k)


def majority_at_k(samples: EvalSampleSet, k: int, correct_set) -> int:
    """1 iff the modal answer among the first k rollouts is correct.

    Ties are broken toward the smallest response index.
    """
    if not 1 <= k <= samples.r:
        raise ValueError(f"k must satisfy 1 <= k <= {samples.r}, got {k}")
    tally = Counter(int(a) for a in samples.answers[:k])
    best = max(tally.items(), key=lambda item: (item[1], -item[0]))[0]
    return 1 if best in set(int(c) for c in correct_set) else 0


@dataclass(frozen=True)
class DifficultyCounts:
    unsolvable: int
    hard: int
    medium: int
    easy: int

    def total(self) -> int:
        return self.unsolvable + self.hard + self.medium + self.easy

    def as_dict(self) -> dict:
        return {
            "unsolvable": self.unsolvable,
            "hard": self.hard,
            "medium": self.medium,
            "easy": self.easy,
        }


def difficulty_histogram(pass_rates) -> DifficultyCounts:
    """Bucket counts: unsolvable (p = 0), hard (0 < p <= 1/2),
    medium (1/2 < p < 1), easy (p = 1)."""
    rates = np.asarray(pass_rates, dtype=np.float64).ravel()
    if np.any((rates < 0) | (rates > 1)):
        raise ValueError("pass rates must lie in [0, 1]")
    return DifficultyCounts(
        unsolvable=int((rates == 0.0).sum()),
        hard=int(((rates > 0.0) & (rates <= 0.5)).sum()),
        medium=int(((rates > 0.5) & (rates < 1.0)).sum()),
        easy=int((rates == 1.0).sum()),
    )


PASSK_CSV_HEADER = ("scheme", "k", "mean_pass_at_k")
BUCKET_CSV_HEADER = ("scheme", "bucket", "count")


def write_passk_csv(path, rows) -> None:
    """rows: iterable of (scheme, k, mean_pass_at_k)."""
    write_csv(path, PASSK_CSV_HEADER, rows)


def write_bucket_csv(path, rows) -> None:
    """rows: iterable of (scheme, bucket, count)."""
    write_csv(path, BUCKET_CSV_HEADER, rows)


def evaluate_policy(theta: np.ndarray, correct_masks: np.ndarray, r: int,
                    k_list, resamples: int, seed: int) -> tuple[dict[int, float], np.ndarray]:
    """Mean pass@k across prompts plus the empirical pass-rate vector.

    Each prompt gets an independent rollout pool and independent bootstrap
    resamples, seeded per prompt for reproducibility. A pool that is all
    wrong or all right scores its mean at every k without drawing resamples.
    """
    if theta.ndim != 2 or np.shape(correct_masks) != theta.shape:
        raise ValueError(
            f"theta and correct_masks must be 2-d of equal shape, got {theta.shape} "
            f"and {np.shape(correct_masks)}"
        )
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
    for i in range(n_prompts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        responses = sample_responses(cum[i:i + 1], rng.random((1, r)))[0]
        samples = EvalSampleSet(prompt_id=i, rewards=correct_masks[i][responses],
                                answers=responses)
        emp_rates[i] = q = float(samples.rewards.mean())
        constant = q == 0.0 or q == 1.0
        for k in k_list:
            totals[k] += q if constant else pass_at_k(samples, k, resamples=resamples, rng=rng)
    return {k: totals[k] / n_prompts for k in k_list}, emp_rates
