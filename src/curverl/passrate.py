"""Synthetic prompt populations with exactly computable pass rates.

Each prompt carries its own softmax policy over M discrete responses plus a
feasible set of correct response indices. Pass rates, their gradients, and
the score function are all closed-form, so every estimator in the trainer
can be checked against an exact oracle.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .ioutil import fmt_float
from .rootfind import brentq

log = logging.getLogger("curverl.passrate")

__all__ = [
    "PromptInstance",
    "PromptPopulation",
    "RolloutBatch",
    "DifficultyProfile",
    "softmax",
    "exact_pass_rate",
    "exact_pass_rate_gradient",
    "score_vector",
    "sample_rollouts",
    "make_population",
    "population_to_json",
    "population_from_json",
    "population_pass_rates",
    "population_pass_rate_gradients",
]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class PromptInstance:
    """One synthetic prompt: response logits plus the set of correct responses.

    An unsolvable prompt has an empty ``correct_set`` and pass rate exactly 0.
    """

    id: int
    logits: np.ndarray
    correct_set: frozenset[int]

    def __post_init__(self) -> None:
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 1 or logits.shape[0] < 2:
            raise ValueError(f"prompt {self.id}: need at least 2 response logits")
        if not np.all(np.isfinite(logits)):
            raise ValueError(f"prompt {self.id}: logits must be finite")
        object.__setattr__(self, "logits", logits)
        correct = frozenset(int(c) for c in self.correct_set)
        if any(c < 0 or c >= logits.shape[0] for c in correct):
            raise ValueError(f"prompt {self.id}: correct_set index out of range")
        object.__setattr__(self, "correct_set", correct)

    @property
    def m(self) -> int:
        return self.logits.shape[0]

    def correct_mask(self) -> np.ndarray:
        mask = np.zeros(self.m, dtype=bool)
        if self.correct_set:
            mask[sorted(self.correct_set)] = True
        return mask


@dataclass(frozen=True)
class RolloutBatch:
    """N sampled responses for one prompt, with binary rewards and p-hat."""

    prompt_id: int
    rewards: np.ndarray
    responses: np.ndarray
    empirical_pass_rate: float

    def __post_init__(self) -> None:
        rewards = np.asarray(self.rewards, dtype=np.int64)
        responses = np.asarray(self.responses, dtype=np.int64)
        if rewards.shape != responses.shape or rewards.ndim != 1:
            raise ValueError("rewards and responses must be 1-d and equal length")
        n = rewards.shape[0]
        if abs(self.empirical_pass_rate * n - rewards.sum()) > 1e-9:
            raise ValueError("empirical_pass_rate inconsistent with rewards")
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "responses", responses)

    @property
    def n(self) -> int:
        return self.rewards.shape[0]


@dataclass
class PromptPopulation:
    """Ordered prompt list plus the base sampling distribution over prompts."""

    prompts: list[PromptInstance]
    base_weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.prompts:
            raise ValueError("population must contain at least one prompt")
        m = self.prompts[0].m
        if any(p.m != m for p in self.prompts):
            raise ValueError("all prompts in a population must share the same M")
        if self.base_weights is None:
            self.base_weights = np.full(len(self.prompts), 1.0 / len(self.prompts))
        w = np.asarray(self.base_weights, dtype=np.float64)
        if w.shape != (len(self.prompts),):
            raise ValueError("base_weights must have one entry per prompt")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("base_weights must be nonnegative and sum to 1")
        self.base_weights = w

    def __len__(self) -> int:
        return len(self.prompts)

    @property
    def m(self) -> int:
        return self.prompts[0].m

    def logits_matrix(self) -> np.ndarray:
        """(P, M) copy of all prompt logits; the trainer mutates its copy."""
        return np.stack([p.logits for p in self.prompts]).astype(np.float64)

    def correct_masks(self) -> np.ndarray:
        """(P, M) boolean matrix of feasible responses."""
        return np.stack([p.correct_mask() for p in self.prompts])


def exact_pass_rate(prompt: PromptInstance) -> float:
    """Probability that a sampled response lands in the correct set.

    Clamped to [0, 1]: summing softmax probabilities can overshoot 1 by an
    ulp when every response is correct.
    """
    if not prompt.correct_set:
        return 0.0
    probs = softmax(prompt.logits)
    return float(min(max(probs[sorted(prompt.correct_set)].sum(), 0.0), 1.0))


def exact_pass_rate_gradient(prompt: PromptInstance) -> np.ndarray:
    """Gradient of the pass rate w.r.t. the prompt's logits.

    Component j is ``pi_j * (1{j correct} - p)``; the components sum to 0
    because softmax probabilities are translation invariant in the logits.
    """
    probs = softmax(prompt.logits)
    p = exact_pass_rate(prompt)
    return probs * (prompt.correct_mask().astype(np.float64) - p)


def score_vector(prompt: PromptInstance, response: int) -> np.ndarray:
    """Gradient of log-probability of ``response`` w.r.t. the logits."""
    if not 0 <= response < prompt.m:
        raise ValueError(f"response index {response} out of range [0, {prompt.m})")
    probs = softmax(prompt.logits)
    score = -probs
    score[response] += 1.0
    return score


def sample_rollouts(prompt: PromptInstance, n: int, rng: np.random.Generator) -> RolloutBatch:
    """Draw n i.i.d. responses from the prompt's policy and score them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    probs = softmax(prompt.logits)
    responses = rng.choice(prompt.m, size=n, p=probs)
    mask = prompt.correct_mask()
    rewards = mask[responses].astype(np.int64)
    return RolloutBatch(
        prompt_id=prompt.id,
        rewards=rewards,
        responses=responses.astype(np.int64),
        empirical_pass_rate=float(rewards.mean()),
    )


def population_pass_rates(theta: np.ndarray, correct_masks: np.ndarray) -> np.ndarray:
    """Vector of exact pass rates for a (P, M) logit matrix, clamped to [0, 1]."""
    probs = softmax(theta)
    return np.clip(np.where(correct_masks, probs, 0.0).sum(axis=1), 0.0, 1.0)


def population_pass_rate_gradients(theta: np.ndarray, correct_masks: np.ndarray) -> np.ndarray:
    """(P, M) matrix of analytic pass-rate gradients, one row per prompt."""
    probs = softmax(theta)
    p = np.where(correct_masks, probs, 0.0).sum(axis=1, keepdims=True)
    return probs * (correct_masks.astype(np.float64) - p)


# ---------------------------------------------------------------------------
# population synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifficultyProfile:
    """Target initial pass-rate profile for synthesized populations.

    ``beta`` draws targets from Beta(alpha, beta); ``fixed`` uses the given
    targets verbatim. A fraction of prompts can be made structurally
    unsolvable (empty correct set, pass rate exactly 0).
    """

    kind: str = "beta"
    alpha: float = 2.0
    beta: float = 2.0
    unsolvable_fraction: float = 0.0
    targets: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("beta", "fixed"):
            raise ValueError(f"unknown difficulty kind {self.kind!r}")
        if self.kind == "beta" and (self.alpha <= 0 or self.beta <= 0):
            raise ValueError("beta profile needs alpha > 0 and beta > 0")
        if self.kind == "fixed" and not self.targets:
            raise ValueError("fixed profile needs explicit targets")
        if not 0.0 <= self.unsolvable_fraction < 1.0:
            raise ValueError("unsolvable_fraction must be in [0, 1)")


_TARGET_CLIP = (1e-8, 1.0 - 1e-8)
_OFFSET_BRACKET = 80.0


def _solve_logit_offset(base: np.ndarray, mask: np.ndarray, target: float) -> float:
    """Scalar shift of the correct logits so the pass rate hits ``target``.

    The pass rate is strictly increasing in the shift (derivative p(1-p)),
    so a bracketed root find is exact to solver tolerance.
    """

    def rate(delta: float) -> float:
        probs = softmax(base + delta * mask)
        return float(probs[mask].sum())

    return brentq(lambda d: rate(d) - target, -_OFFSET_BRACKET, _OFFSET_BRACKET,
                  xtol=1e-13, rtol=8.9e-16, maxiter=200)


def make_population(
    size: int,
    m: int = 16,
    profile: DifficultyProfile | None = None,
    seed: int = 0,
    base_weights: np.ndarray | None = None,
) -> PromptPopulation:
    """Synthesize a population whose initial pass rates match a target profile.

    Targets are realized to within 1e-9 by root-finding a scalar offset added
    to the correct-set logits on top of standard-normal base logits.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    profile = profile or DifficultyProfile()
    rng = np.random.default_rng(seed)

    n_unsolvable = int(round(size * profile.unsolvable_fraction))
    if profile.kind == "beta":
        targets = rng.beta(profile.alpha, profile.beta, size=size)
    else:
        targets = np.resize(np.asarray(profile.targets, dtype=np.float64), size)
    targets = np.clip(targets, *_TARGET_CLIP)

    unsolvable = np.zeros(size, dtype=bool)
    if n_unsolvable:
        unsolvable[rng.choice(size, size=n_unsolvable, replace=False)] = True

    prompts: list[PromptInstance] = []
    max_correct = max(1, m // 4)
    for i in range(size):
        base = rng.standard_normal(m)
        if unsolvable[i]:
            prompts.append(PromptInstance(id=i, logits=base, correct_set=frozenset()))
            continue
        n_correct = int(rng.integers(1, max_correct + 1))
        correct = rng.choice(m, size=n_correct, replace=False)
        mask = np.zeros(m, dtype=bool)
        mask[correct] = True
        delta = _solve_logit_offset(base, mask, float(targets[i]))
        logits = base + delta * mask
        prompt = PromptInstance(id=i, logits=logits, correct_set=frozenset(int(c) for c in correct))
        achieved = exact_pass_rate(prompt)
        if abs(achieved - targets[i]) > 1e-9:
            raise RuntimeError(f"prompt {i}: target {targets[i]:.3g} missed ({achieved:.3g})")
        prompts.append(prompt)
    return PromptPopulation(prompts=prompts, base_weights=base_weights)


# ---------------------------------------------------------------------------
# serialization (bit-exact round trip at 17 significant digits)
# ---------------------------------------------------------------------------

def population_to_json(pop: PromptPopulation) -> str:
    """Serialize with a fixed 17-significant-digit decimal float format."""
    lines = ["{", f'  "m": {pop.m},', '  "prompts": [']
    for i, prompt in enumerate(pop.prompts):
        logits = ", ".join(fmt_float(v) for v in prompt.logits)
        correct = ", ".join(str(c) for c in sorted(prompt.correct_set))
        tail = "," if i + 1 < len(pop.prompts) else ""
        lines.append(
            f'    {{"id": {prompt.id}, "logits": [{logits}], "correct": [{correct}]}}{tail}'
        )
    weights = ", ".join(fmt_float(w) for w in pop.base_weights)
    lines.append("  ],")
    lines.append(f'  "base_weights": [{weights}]')
    lines.append("}")
    return "\n".join(lines) + "\n"


def population_from_json(text: str) -> PromptPopulation:
    doc = json.loads(text)
    expected = {"m", "prompts", "base_weights"}
    unknown = set(doc) - expected
    if unknown:
        raise ValueError(f"unknown population keys: {sorted(unknown)}")
    m = int(doc["m"])
    prompts = []
    for entry in doc["prompts"]:
        bad = set(entry) - {"id", "logits", "correct"}
        if bad:
            raise ValueError(f"unknown prompt keys: {sorted(bad)}")
        logits = np.asarray(entry["logits"], dtype=np.float64)
        if logits.shape[0] != m:
            raise ValueError(f"prompt {entry['id']}: expected {m} logits")
        prompts.append(
            PromptInstance(
                id=int(entry["id"]),
                logits=logits,
                correct_set=frozenset(int(c) for c in entry["correct"]),
            )
        )
    return PromptPopulation(
        prompts=prompts,
        base_weights=np.asarray(doc["base_weights"], dtype=np.float64),
    )
