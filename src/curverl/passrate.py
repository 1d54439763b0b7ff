"""Synthetic prompt populations with exactly computable pass rates.

A population of P prompts is two (P, M) arrays: the logits of each prompt's
softmax policy over M discrete responses, and a boolean mask of its correct
responses. A prompt's pass rate is the softmax mass on its correct set, so
pass rates and their gradients are closed-form over whole populations and
every estimator in the trainer can be checked against an exact oracle.
Responses are sampled in one place, :func:`curverl.kernels.sample_responses`.

A population is a pure function of its :class:`curverl.config.PopulationSpec`
(drawn in whole-array calls, with a stream that no block size changes), so a
run records it by :func:`population_digest`, a hash of its arrays.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("curverl.passrate")

__all__ = [
    "PromptPopulation",
    "DifficultyProfile",
    "softmax",
    "make_population",
    "population_digest",
    "population_pass_rates",
    "pass_rates_from_probs",
    "population_pass_rate_gradients",
]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class PromptPopulation:
    """P prompts as read-only arrays: ``logits`` (P, M), the ``correct``
    response mask (P, M) and the base sampling distribution ``base_weights``
    (P,), uniform by default. Row i is prompt i; a row with no correct
    response is unsolvable, with pass rate exactly 0. The arrays are copies
    of the inputs, so training and evaluation can share one population.
    """

    def __init__(self, logits, correct, base_weights=None):
        logits = np.array(logits, dtype=np.float64)
        correct = np.array(correct, dtype=bool)
        if logits.ndim != 2 or logits.shape[0] < 1:
            raise ValueError("population must contain at least one prompt")
        if logits.shape[1] < 2:
            raise ValueError("prompt 0: need at least 2 response logits")
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        if bad.size:
            raise ValueError(f"prompt {bad[0]}: logits must be finite")
        if correct.shape != logits.shape:
            raise ValueError(
                f"correct mask has shape {correct.shape}, logits have {logits.shape}"
            )
        size = logits.shape[0]
        if base_weights is None:
            w = np.full(size, 1.0 / size)
        else:
            w = np.array(base_weights, dtype=np.float64)
        if w.shape != (size,):
            raise ValueError("base_weights must have one entry per prompt")
        # a NaN passes both checks below and fails later inside rng.choice
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"prompt {bad[0]}: base weight must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("base_weights must be nonnegative and sum to 1")
        self.logits = _read_only(logits)
        self.correct = _read_only(correct)
        self.base_weights = _read_only(w)

    def __len__(self) -> int:
        return self.logits.shape[0]

    @property
    def m(self) -> int:
        return self.logits.shape[1]


def population_pass_rates(theta: np.ndarray, correct_masks: np.ndarray) -> np.ndarray:
    """Vector of exact pass rates for a (P, M) logit matrix, clamped to [0, 1]."""
    return pass_rates_from_probs(softmax(theta), correct_masks)


def pass_rates_from_probs(probs: np.ndarray, correct_masks: np.ndarray) -> np.ndarray:
    """Each row's mass on its correct responses, clamped to [0, 1]; row by
    row, so the rates of some rows of ``probs`` are those rows of the rates."""
    return np.clip(np.where(correct_masks, probs, 0.0).sum(axis=1), 0.0, 1.0)


def population_pass_rate_gradients(theta: np.ndarray, correct_masks: np.ndarray) -> np.ndarray:
    """(P, M) matrix of analytic pass-rate gradients, one row per prompt.

    Component j of row i is ``pi_ij * (1{j correct} - p_i)``; each row sums
    to 0 because softmax probabilities are translation invariant in the logits.
    """
    probs = softmax(theta)
    p = np.where(correct_masks, probs, 0.0).sum(axis=1, keepdims=True)
    return probs * (correct_masks.astype(np.float64) - p)


# ---------------------------------------------------------------------------
# population synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifficultyProfile:
    """Target initial pass-rate profile for synthesized populations.

    ``beta`` draws targets from Beta(alpha, beta); ``fixed`` cycles through
    the given targets, each in [0, 1] (held 1e-8 inside it). A fraction of
    prompts can be made structurally unsolvable (empty correct set, pass rate
    exactly 0).
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
        if self.kind == "beta" and self.targets is not None:
            raise ValueError("beta profile takes no targets")
        if self.targets and not all(0.0 <= t <= 1.0 for t in self.targets):
            raise ValueError(f"targets must lie in [0, 1], got {list(self.targets)}")
        if not 0.0 <= self.unsolvable_fraction < 1.0:
            raise ValueError("unsolvable_fraction must be in [0, 1)")


_TARGET_CLIP = (1e-8, 1.0 - 1e-8)
# logits shifted and checked at a time by make_population
_SHIFT_BLOCK_VALUES = 2**16


def _logit_offsets(e: np.ndarray, mask: np.ndarray, targets: np.ndarray,
                   lanes: np.ndarray) -> np.ndarray:
    """One offset per row of ``e``, the exponentials of a block of logits
    less a constant per row: on the rows (lanes) that ``lanes`` selects, the
    offset that brings the pass rate of the row to its target when added to
    its correct logits in ``mask``, ``log t - log1p(-t) + log S_i - log S_c``;
    0 on the other rows. Each selected correct set must be nonempty and
    proper; the first lane whose set is not is named."""
    has_correct = mask.any(axis=1)
    bad = np.flatnonzero(lanes & (~has_correct | mask.all(axis=1)))
    if bad.size:
        kind = "full" if has_correct[bad[0]] else "empty"
        raise ValueError(f"lane {bad[0]}: {kind} correct set, no offset reaches the target")
    # S_i summed over its own entries, not 1 - S_c, so that a row whose
    # correct mass is near 1 keeps its digits
    s_c = np.where(mask, e, 0.0).sum(axis=1)[lanes]
    s_i = np.where(mask, 0.0, e).sum(axis=1)[lanes]
    t = targets[lanes]
    delta = np.zeros(len(e))
    delta[lanes] = np.log(t) - np.log1p(-t) + np.log(s_i) - np.log(s_c)
    return delta


def make_population(
    size: int,
    m: int = 16,
    profile: DifficultyProfile | None = None,
    seed: int = 0,
    base_weights: np.ndarray | None = None,
) -> PromptPopulation:
    """Synthesize a population whose initial pass rates match a target profile.

    Each solvable prompt's correct logits are shifted by one offset on top of
    standard-normal base logits. The pass rate is logistic in the offset: with
    S_c and S_i a row's softmax mass on its correct and its incorrect entries
    before the shift, p(delta) = S_c e^delta / (S_c e^delta + S_i), so the
    offset that hits target t is ``log t - log1p(-t) + log S_i - log S_c``.
    Every draw is a whole-array call except the correct sets' keys, drawn a
    block of rows at a time with the offsets, which are checked to within 1e-9.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    profile = profile or DifficultyProfile()
    try:
        logits = np.empty((size, m))
        correct = np.zeros((size, m), dtype=bool)
    except (MemoryError, ValueError):  # too large to map, or to index
        raise ValueError(
            f"size={size} and m={m}: the population is too large to allocate"
        ) from None
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

    rng.standard_normal(out=logits)
    n_correct = np.where(unsolvable, 0, rng.integers(1, max(1, m // 4) + 1, size=size))
    # a block of rows at a time, so that no (size, m) temporary is made; each
    # key takes one word of the stream, so the keys do not depend on the block
    block = max(1, _SHIFT_BLOCK_VALUES // m)
    achieved = np.empty(size)
    for lo in range(0, size, block):
        z, mask = logits[lo:lo + block], correct[lo:lo + block]
        # e is held from one block to the next, so that the allocator keeps
        # its pages instead of faulting in fresh ones for every block
        e = np.exp(z - z.max(axis=1, keepdims=True))
        # a row's correct set is the n_correct positions of its smallest keys
        np.put_along_axis(mask, rng.random(z.shape).argsort(axis=1),
                          np.arange(m) < n_correct[lo:lo + block, None], axis=1)
        # unsolvable rows (S_c = 0) keep offset 0
        delta = _logit_offsets(e, mask, targets[lo:lo + block], ~unsolvable[lo:lo + block])
        z += delta[:, None] * mask
        achieved[lo:lo + block] = population_pass_rates(z, mask)
    missed = np.flatnonzero(~unsolvable & (np.abs(achieved - targets) > 1e-9))
    if missed.size:
        i = missed[0]
        raise RuntimeError(f"prompt {i}: target {targets[i]:.3g} missed ({achieved[i]:.3g})")
    return PromptPopulation(logits, correct, base_weights)


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------

def population_digest(pop: PromptPopulation) -> str:
    """The sha256 hex digest of a population's arrays, one hash over the
    bytes of ``logits`` (C order, little-endian float64), then ``correct``
    (bool, one byte each) and then ``base_weights`` (little-endian float64).
    Two populations have the same digest only if their arrays are bit for
    bit the same, so a population rebuilt from a run's manifest can be
    checked against the ``population.json`` that the run wrote."""
    h = hashlib.sha256()
    for arr, dtype in ((pop.logits, "<f8"), (pop.correct, "?"), (pop.base_weights, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype))
    return h.hexdigest()
