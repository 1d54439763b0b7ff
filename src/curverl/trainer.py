"""Training loop for the policy-reweighted contextual bandit.

One step draws a batch of prompts from the base distribution, rolls out N
responses per prompt, weights each active prompt (c of N rollouts correct,
0 < c < N) by entry c - 1 of one :func:`weighting.grid_weights` table (or,
with ``weight_at_exact_pass_rate``, by :func:`weighting.pointwise_weight` at
its exact pass rate), averages the weighted score-function gradients over
the batch, takes a plain gradient-ascent step, and counts the active prompts
at each c into the step's row of the run record (:class:`TrainResult`). A
"window" reference reads the sum of the last t0 rows (:func:`_step_counts`),
and a cold start or a pinned "uniform" an empty row, in either mode.

Runs are deterministic: all randomness comes from per-step seed sequences
derived from the config seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import refdist, weighting
from .ioutil import write_csv
from .kernels import accumulate_gradients, sample_responses
from .passrate import PromptPopulation, pass_rates_from_probs, softmax

log = logging.getLogger("curverl.trainer")

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TrainerState",
    "train_step",
    "run_training",
    "write_training_artifacts",
    "TRAIN_CSV_HEADER",
    "PER_PROMPT_CSV_HEADER",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults (batch_size 256, n_rollouts 8, t0 10) are the canonical setup;
    the learning rate is sized for the toy softmax policies, where visible
    movement needs far larger steps than LLM-scale training.
    """

    steps: int
    scheme: weighting.WeightScheme
    batch_size: int = 256
    n_rollouts: int = 8
    t0: int = 10
    learning_rate: float = 0.1
    seed: int = 0
    min_window_count: int = 64
    log_per_prompt: bool = False
    weight_at_exact_pass_rate: bool = False

    def __post_init__(self) -> None:
        checks = [
            ("steps", self.steps >= 1),
            ("batch_size", self.batch_size >= 1),
            ("n_rollouts", self.n_rollouts >= 2),
            ("t0", self.t0 >= 1),
            ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0),
            ("min_window_count", self.min_window_count >= 0),
            ("seed", self.seed >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ValueError(f"invalid TrainConfig field {name}={getattr(self, name)!r}")


@dataclass
class TrainResult:
    """The run record: the final ``theta`` and one row per step.

    Row t of the (steps, B) blocks ``prompt_ids``, ``p_hat``, ``weights``
    and ``prompt_grad_norms`` holds step t's batch (weight 0 marks an
    inactive row). The (steps,) arrays are the scalar columns of
    train_log.csv. Row t of the (steps, N - 1) int64 ``step_counts`` counts
    step t's active rates c/N by c (entry c - 1). The window step t reads is
    the sum of rows ``max(0, t - t0)`` to t - 1 (empty at step 0).
    """

    config: TrainConfig
    theta: np.ndarray
    prompt_ids: np.ndarray
    p_hat: np.ndarray
    weights: np.ndarray
    prompt_grad_norms: np.ndarray
    mean_exact_pass_rate: np.ndarray
    active_fraction: np.ndarray
    z_theta: np.ndarray
    grad_norm: np.ndarray
    step_counts: np.ndarray


class TrainerState:
    """Mutable policy + run record bundle consumed by train_step.

    ``record`` is the :class:`TrainResult` the steps fill, one row each; its
    ``step_counts`` rows are also the window the steps read.

    The state caches the policy's softmax ``probs`` (P, M) and every
    prompt's exact pass rate, both computed over all P rows at construction.
    After each update :func:`train_step` recomputes the softmax of the rows
    it moved, stores it in ``probs`` and takes their rates from it, and a
    step's batch reads its rows of ``probs`` instead of a fresh softmax. The
    softmax and the masked sum work row by row, so the cache has the same
    bits as :func:`softmax` and :func:`population_pass_rates` over the whole
    matrix. ``theta`` is owned by :func:`train_step`: change it any other
    way and the cache no longer describes it.

    A step allocates only O(B·M); the batch draw searches a CDF of the base
    weights built once here.
    """

    def __init__(self, population: PromptPopulation, config: TrainConfig):
        self.population = population
        self.config = config
        # the population's arrays are read-only; the trainer updates a copy
        self.theta = population.logits.copy()
        self.masks = population.correct
        self.step = 0
        self.probs = softmax(self.theta)
        self._exact = pass_rates_from_probs(self.probs, self.masks)
        # the CDF that Generator.choice(P, B, p=base_weights) builds on every call
        self._batch_cdf = population.base_weights.cumsum()
        self._batch_cdf /= self._batch_cdf[-1]
        # The record is made before the first step, and a step copies its
        # arrays into their rows: kept per step, they are small heap blocks
        # left among the step's freed (B, M) temporaries, and where they land
        # can split the free space later steps reuse, growing the heap by MBs
        # in some process layouts and not in others.
        shape, grid = (config.steps, config.batch_size), config.n_rollouts - 1
        try:
            p_hat, weights, prompt_norms = np.empty((3, *shape))
            mean_exact, active, z_theta, grad_norm = np.empty((4, config.steps))
            self.record = TrainResult(
                config=config, theta=self.theta,
                prompt_ids=np.empty(shape, np.int64), p_hat=p_hat, weights=weights,
                prompt_grad_norms=prompt_norms, mean_exact_pass_rate=mean_exact,
                active_fraction=active, z_theta=z_theta, grad_norm=grad_norm,
                step_counts=np.empty((config.steps, grid), np.int64),
            )
        except (MemoryError, ValueError):  # too large to map, or to index
            raise ValueError(
                f"steps={config.steps}, batch_size={config.batch_size} and "
                f"n_rollouts={config.n_rollouts}: the run is too large to allocate"
            ) from None

    def draw_batch(self, rng: np.random.Generator) -> np.ndarray:
        """``rng.choice(P, size=B, p=base_weights)``: the same int64 prompt
        ids, and ``rng`` left in the same state, from the CDF built once."""
        return self._batch_cdf.searchsorted(rng.random(self.config.batch_size), side="right")

    def mean_exact_pass_rate(self) -> float:
        """d0-weighted mean of the cached exact pass rates of ``theta``."""
        # the dot product can round past 1 when every prompt is solved
        mean = float(np.dot(self.population.base_weights, self._exact))
        return min(max(mean, 0.0), 1.0)


def _step_counts(state: TrainerState):
    """The count row the step weighs under: the window, for a "window" reference
    and at least ``min_window_count`` rates; else ``None``, the uniform
    reference. A cold start begins at step 0, whose window is empty, and is
    logged there."""
    cfg, t = state.config, state.step
    if not (weighting.needs_reference(cfg.scheme) and cfg.scheme.reference == "window"):
        return None
    window = state.record.step_counts[max(0, t - cfg.t0):t].sum(axis=0)
    size = int(window.sum())
    if size >= cfg.min_window_count:
        return window
    if t == 0:
        log.info("step %d: window holds %d < %d rates, using the uniform cold-start reference",
                 t, size, cfg.min_window_count)
    return None


def _sum_by_prompt(batch: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct prompts of ``batch`` and, per prompt, the sum of its rows
    of ``grads`` in their order of occurrence.

    The bits are those of ``np.add.at`` into zeros: each sum starts from its
    first row, plus 0.0 so that a -0.0 entry becomes +0.0 as 0.0 + (-0.0)
    does, and ``np.add.at`` adds only the repeated rows.
    """
    rows, first, inverse = np.unique(batch, return_index=True, return_inverse=True)
    total = grads[first]
    total += 0.0
    repeated = np.ones(batch.size, dtype=bool)
    repeated[first] = False
    np.add.at(total, inverse[repeated], grads[repeated])
    return rows, total


def train_step(state: TrainerState) -> None:
    """One update, logged in row ``state.step`` of ``state.record``."""
    cfg = state.config
    if state.step >= cfg.steps:
        raise ValueError(f"step {state.step}: the run has only steps={cfg.steps}")
    mean_exact = state.mean_exact_pass_rate()

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(state.step,))
    )
    batch = state.draw_batch(rng)
    uniforms = rng.random((cfg.batch_size, cfg.n_rollouts))

    probs = state.probs[batch]
    responses = sample_responses(np.cumsum(probs, axis=1), uniforms)
    rewards = state.masks[batch[:, None], responses]
    counts = rewards.sum(axis=1)
    p_hat = counts / cfg.n_rollouts
    active = (counts > 0) & (counts < cfg.n_rollouts)

    row = _step_counts(state)
    weights = np.zeros(cfg.batch_size)
    # an overflow is reported below, naming the step
    with np.errstate(all="ignore"):
        if not cfg.weight_at_exact_pass_rate:
            table = weighting.grid_weights(cfg.scheme, cfg.n_rollouts, row)
            weights[active] = table[counts[active] - 1]
        else:
            # diagnostic mode: an active prompt's exact rate can still round
            # to 0 or 1, where the weight is undefined; clamp just inside
            at = np.clip(state._exact[batch[active]], 1e-12, 1.0 - 1e-12)
            row = np.zeros(cfg.n_rollouts - 1, np.int64) if row is None else row
            weights[active] = weighting.pointwise_weight(cfg.scheme, at, row)
    if not (np.isfinite(weights) & (weights >= 0.0)).all():
        raise ValueError(f"step {state.step}: weights must be finite and nonnegative")

    # a rollout's coefficient w * (r - p_hat) / N: column r of this table
    coeff = weights[:, None] * (np.array([0.0, 1.0]) - p_hat[:, None]) / cfg.n_rollouts
    grads = accumulate_gradients(probs, responses, rewards, coeff)
    # each (B, M) temporary is dropped, or squared in place, once last read,
    # so that fewer of them are live at the step's peak
    del probs
    rows, total = _sum_by_prompt(batch, grads)
    grads *= grads
    prompt_norms = np.sqrt(grads.sum(axis=1))
    del grads

    total /= cfg.batch_size
    updated = state.theta[rows]
    updated += cfg.learning_rate * total
    # the update is zero outside the rows it moved, so its norm sums theirs;
    # the squares go before the refresh below allocates its softmax
    total *= total
    grad_norm = float(np.sqrt(total.sum()))
    del total
    if not math.isfinite(grad_norm):
        raise ValueError(f"step {state.step}: gradient norm is {grad_norm}")
    # only the sampled rows changed, so only they can have left the finite range
    if not np.isfinite(updated).all():
        raise ValueError(f"step {state.step}: updated logits are not finite")
    state.theta[rows] = updated
    probs = softmax(updated)
    state.probs[rows] = probs
    state._exact[rows] = pass_rates_from_probs(probs, state.masks[rows])

    t = state.step
    rec = state.record
    rec.step_counts[t] = np.bincount(counts[active] - 1, minlength=cfg.n_rollouts - 1)
    rec.prompt_ids[t] = batch
    rec.p_hat[t] = p_hat
    rec.weights[t] = weights
    rec.prompt_grad_norms[t] = prompt_norms
    rec.mean_exact_pass_rate[t] = mean_exact
    rec.active_fraction[t] = active.sum() / cfg.batch_size
    rec.z_theta[t] = weights.sum() / cfg.batch_size
    rec.grad_norm[t] = grad_norm
    state.step += 1


def run_training(population: PromptPopulation, config: TrainConfig) -> TrainResult:
    state = TrainerState(population, config)
    for _ in range(config.steps):
        train_step(state)
    return state.record


# ---------------------------------------------------------------------------
# artifact output
# ---------------------------------------------------------------------------

TRAIN_CSV_HEADER = (
    "step", "scheme", "mean_exact_pass_rate", "active_fraction", "z_theta",
    "window_size", "grad_norm",
)
PER_PROMPT_CSV_HEADER = ("step", "prompt_id", "p_hat", "weight", "grad_norm", "rel_multiplier")


def write_training_artifacts(result: TrainResult, out_dir: str | Path) -> None:
    """Write train_log.csv, refdist.csv and (optionally) per_prompt.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    steps = np.arange(cfg.steps)
    # the window after each step: the rows summed, less those t0 steps back
    cum = result.step_counts.cumsum(axis=0)
    window = cum.copy()
    window[cfg.t0:] -= cum[:-cfg.t0]

    write_csv(
        out / "train_log.csv",
        TRAIN_CSV_HEADER,
        (
            steps,
            [weighting.scheme_name(cfg.scheme)] * cfg.steps,
            result.mean_exact_pass_rate,
            result.active_fraction,
            result.z_theta,
            window.sum(axis=1),
            result.grad_norm,
        ),
    )

    # step t read the window step t - 1 left, and step 0 an empty one
    seen = np.concatenate([np.zeros_like(window[:1]), window[:-1]])
    write_csv(
        out / "refdist.csv",
        refdist.REFERENCE_CSV_HEADER,
        refdist.reference_csv_columns(steps, seen),
    )

    if cfg.log_per_prompt:
        p_hat, weights = result.p_hat.ravel(), result.weights.ravel()
        # rel_multiplier = p_hat * weight, the step's weight relative to the
        # 1/p rule at the same pass rate (0 for inactive rows).
        write_csv(
            out / "per_prompt.csv",
            PER_PROMPT_CSV_HEADER,
            (
                np.repeat(steps, cfg.batch_size),
                result.prompt_ids.ravel(),
                p_hat,
                weights,
                result.prompt_grad_norms.ravel(),
                p_hat * weights,
            ),
        )
