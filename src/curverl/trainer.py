"""Training loop for the policy-reweighted contextual bandit.

One step: estimate the reference distribution from the lagged sliding window
(uniform cold start while it is underfilled), draw a batch of prompts from
the base distribution, roll out N responses per prompt, weight each active
prompt (empirical pass rate strictly inside (0, 1)) at its p-hat, average the
weighted score-function gradients over the batch, take a plain gradient-ascent
step, then append the active pass rates to the window and evict stale ones.

Runs are deterministic: all randomness comes from per-step seed sequences
derived from the config seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import refdist, weighting
from .ioutil import write_csv
from .kernels import accumulate_gradients, sample_responses
from .passrate import (
    PromptInstance,
    PromptPopulation,
    RolloutBatch,
    population_pass_rate_gradients,
    population_pass_rates,
    score_vector,
    softmax,
)
from .refdist import ReferenceDistribution, SlidingWindow
from .references import MonotoneMap, PushforwardReference

log = logging.getLogger("curverl.trainer")

__all__ = [
    "TrainConfig",
    "PerPromptLog",
    "StepLog",
    "TrainResult",
    "TrainerState",
    "train_step",
    "run_training",
    "per_prompt_gradient",
    "effective_distribution",
    "mc_gradient_mean",
    "calibration_invariance_check",
    "pointwise_calibration_discrepancy",
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
            ("learning_rate", self.learning_rate > 0),
            ("min_window_count", self.min_window_count >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ValueError(f"invalid TrainConfig field {name}={getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "scheme": weighting.scheme_to_dict(self.scheme),
            "batch_size": self.batch_size,
            "n_rollouts": self.n_rollouts,
            "t0": self.t0,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "min_window_count": self.min_window_count,
            "log_per_prompt": self.log_per_prompt,
            "weight_at_exact_pass_rate": self.weight_at_exact_pass_rate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {
            "steps", "scheme", "batch_size", "n_rollouts", "t0", "learning_rate",
            "seed", "min_window_count", "backend", "log_per_prompt",
            "weight_at_exact_pass_rate",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        missing = {"steps", "scheme"} - set(d)
        if missing:
            raise ValueError(f"missing train config keys: {sorted(missing)}")
        kwargs = dict(d)
        kwargs.pop("backend", None)  # v1 manifests named a kernel backend; there is one now
        kwargs["scheme"] = weighting.scheme_from_dict(dict(d["scheme"]))
        return cls(**kwargs)


@dataclass(frozen=True)
class PerPromptLog:
    prompt_id: int
    p_hat: float
    weight: float
    grad_norm: float


@dataclass(frozen=True)
class StepLog:
    step: int
    per_prompt: tuple[PerPromptLog, ...]
    mean_exact_pass_rate: float
    active_fraction: float
    z_theta: float
    window_size: int
    grad_norm: float


@dataclass
class TrainResult:
    config: TrainConfig
    theta: np.ndarray
    step_logs: list[StepLog]
    references: list[ReferenceDistribution]


def per_prompt_gradient(prompt: PromptInstance, batch: RolloutBatch, weight: float) -> np.ndarray:
    """Single-prompt gradient estimate (1/N) sum_i weight (r_i - p_hat) S_i.

    The group baseline p-hat makes degenerate groups (all rewards equal)
    contribute exactly zero. Because the baseline includes rollout i itself,
    the fixed-weight expectation is (1 - 1/N) * weight * grad(p), the usual
    leave-one-in shrinkage; the direction is unbiased. This is the reference
    implementation the fast kernels are tested against.
    """
    p_hat = batch.empirical_pass_rate
    acc = np.zeros(prompt.m)
    for reward, response in zip(batch.rewards, batch.responses):
        acc += weight * (float(reward) - p_hat) * score_vector(prompt, int(response))
    return acc / batch.n


def effective_distribution(weights, base_weights) -> tuple[np.ndarray, float]:
    """Reweighted prompt distribution d(x) = d0(x) w(x) / Z and its scale Z.

    The scale multiplies the update magnitude only; the direction of the
    aggregate gradient is unchanged by it.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    d0 = np.asarray(base_weights, dtype=np.float64).ravel()
    if w.shape != d0.shape:
        raise ValueError("weights and base_weights must have equal length")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    z = float(np.dot(d0, w))
    if z <= 0.0:
        raise ValueError("all-zero weights define no distribution")
    return d0 * w / z, z


class TrainerState:
    """Mutable policy + window + config bundle consumed by train_step."""

    def __init__(self, population: PromptPopulation, config: TrainConfig):
        self.population = population
        self.config = config
        self.theta = population.logits_matrix()
        self.masks = population.correct_masks()
        self.window = SlidingWindow(t0=config.t0, capacity=config.t0 * config.batch_size)
        self.step = 0
        self._cold_start_logged = False

    def exact_pass_rates(self) -> np.ndarray:
        return population_pass_rates(self.theta, self.masks)

    def mean_exact_pass_rate(self) -> float:
        return float(np.dot(self.population.base_weights, self.exact_pass_rates()))


def _window_reference(state: TrainerState) -> ReferenceDistribution:
    """What the sliding window currently says; uniform when empty."""
    if len(state.window) == 0:
        return refdist.uniform_reference(state.config.n_rollouts)
    return refdist.estimate(state.window, state.config.n_rollouts)


def _scheme_for_step(state: TrainerState, window_ref: ReferenceDistribution):
    """Pin the step's reference into distribution-aware schemes."""
    scheme = state.config.scheme
    if not weighting.needs_reference(scheme):
        return scheme
    ref = scheme.reference
    if ref is None or ref == "window":
        if len(state.window) < state.config.min_window_count:
            if not state._cold_start_logged:
                log.info(
                    "step %d: window holds %d < %d rates, using the uniform cold-start reference",
                    state.step, len(state.window), state.config.min_window_count,
                )
                state._cold_start_logged = True
            resolved = refdist.uniform_reference(state.config.n_rollouts)
        else:
            resolved = window_ref
    elif ref == "uniform":
        resolved = refdist.uniform_reference(state.config.n_rollouts)
    else:
        resolved = ref
    return replace(scheme, reference=resolved)


def train_step(state: TrainerState) -> tuple[StepLog, ReferenceDistribution]:
    """One update; returns the step log and the window reference it saw."""
    cfg = state.config
    window_ref = _window_reference(state)
    step_scheme = _scheme_for_step(state, window_ref)
    mean_exact = state.mean_exact_pass_rate()
    exact_rates = None
    if cfg.weight_at_exact_pass_rate:
        exact_rates = state.exact_pass_rates()

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(state.step,))
    )
    batch = rng.choice(len(state.population), size=cfg.batch_size,
                       p=state.population.base_weights)
    uniforms = rng.random((cfg.batch_size, cfg.n_rollouts))

    probs = softmax(state.theta[batch])
    cum = np.cumsum(probs, axis=1)
    responses = sample_responses(cum, uniforms)
    rewards = np.take_along_axis(state.masks[batch], responses, axis=1)
    counts = rewards.sum(axis=1)
    p_hat = counts / cfg.n_rollouts
    active = (counts > 0) & (counts < cfg.n_rollouts)

    weights = np.zeros(cfg.batch_size)
    for i in np.flatnonzero(active):
        if exact_rates is not None:
            # diagnostic mode: an active prompt's exact rate can still round
            # to 0 or 1, where the weight is undefined; clamp just inside
            at = float(np.clip(exact_rates[batch[i]], 1e-12, 1.0 - 1e-12))
        else:
            at = float(p_hat[i])
        weights[i] = weighting.pointwise_weight(step_scheme, at)

    coeff = weights[:, None] * (rewards.astype(np.float64) - p_hat[:, None]) / cfg.n_rollouts
    grads = accumulate_gradients(probs, responses, coeff)
    prompt_norms = np.sqrt((grads * grads).sum(axis=1))

    total = np.zeros_like(state.theta)
    np.add.at(total, batch, grads)
    total /= cfg.batch_size
    grad_norm = float(np.sqrt((total * total).sum()))
    state.theta += cfg.learning_rate * total

    state.window.push(state.step, p_hat[active])

    per_prompt = tuple(
        PerPromptLog(
            prompt_id=int(batch[i]),
            p_hat=float(p_hat[i]),
            weight=float(weights[i]),
            grad_norm=float(prompt_norms[i]),
        )
        for i in range(cfg.batch_size)
    )
    entry = StepLog(
        step=state.step,
        per_prompt=per_prompt,
        mean_exact_pass_rate=mean_exact,
        active_fraction=float(active.sum() / cfg.batch_size),
        z_theta=float(weights.sum() / cfg.batch_size),
        window_size=len(state.window),
        grad_norm=grad_norm,
    )
    state.step += 1
    return entry, window_ref


def run_training(population: PromptPopulation, config: TrainConfig) -> TrainResult:
    state = TrainerState(population, config)
    logs: list[StepLog] = []
    refs: list[ReferenceDistribution] = []
    for _ in range(config.steps):
        entry, window_ref = train_step(state)
        logs.append(entry)
        refs.append(window_ref)
    return TrainResult(
        config=config,
        theta=state.theta,
        step_logs=logs,
        references=refs,
    )


# ---------------------------------------------------------------------------
# estimator diagnostics
# ---------------------------------------------------------------------------

def mc_gradient_mean(prompt: PromptInstance, weight: float, n_batches: int,
                     n_rollouts: int, rng: np.random.Generator,
                     use_baseline: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and standard error of the fixed-weight gradient
    estimator over independently sampled rollout groups.

    With ``use_baseline=True`` this is the trainer's estimator, whose
    expectation carries the (1 - 1/N) group-baseline shrinkage; with
    ``use_baseline=False`` it is the plain score-function estimator
    (1/N) sum_i weight r_i S_i, whose expectation is exactly
    weight * grad(p).
    """
    probs = softmax(prompt.logits)[None, :].repeat(n_batches, axis=0)
    cum = np.cumsum(probs, axis=1)
    uniforms = rng.random((n_batches, n_rollouts))
    responses = sample_responses(cum, uniforms)
    rewards = prompt.correct_mask()[responses]
    baseline = rewards.sum(axis=1)[:, None] / n_rollouts if use_baseline else 0.0
    coeff = weight * (rewards.astype(np.float64) - baseline) / n_rollouts
    grads = accumulate_gradients(probs, responses, coeff)
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return mean, se


def _population_curve_gradient(population: PromptPopulation, rates, grads, reference) -> np.ndarray:
    weights = np.array([reference.density_at(r) / reference.cdf_at(r) for r in rates])
    return (population.base_weights * weights)[:, None] * grads


def calibration_invariance_check(population: PromptPopulation, reference,
                                 mono_map: MonotoneMap) -> float:
    """Max componentwise gap between the adaptive population gradient computed
    on raw pass rates and on monotonically recalibrated ones.

    The recalibrated side pushes the reference forward through the map and
    multiplies the pass-rate gradients by the map's derivative; for any
    strictly increasing differentiable map the two gradients coincide, so the
    returned discrepancy is floating-point noise. Requires every pass rate
    strictly inside (0, 1) and a reference with a smooth positive density.
    """
    mono_map.validate()
    theta = population.logits_matrix()
    masks = population.correct_masks()
    rates = population_pass_rates(theta, masks)
    if np.any(rates <= 0.0) or np.any(rates >= 1.0):
        raise ValueError("calibration check needs pass rates strictly inside (0, 1)")
    grads = population_pass_rate_gradients(theta, masks)

    raw = _population_curve_gradient(population, rates, grads, reference)

    pushed = PushforwardReference(reference, mono_map)
    mapped = np.array([mono_map.forward(float(r)) for r in rates])
    slope = np.array([mono_map.dforward(float(r)) for r in rates])
    w_t = np.array([pushed.density_at(float(u)) / pushed.cdf_at(float(u)) for u in mapped])
    transformed = (population.base_weights * w_t * slope)[:, None] * grads
    return float(np.abs(raw - transformed).max())


def pointwise_calibration_discrepancy(population: PromptPopulation,
                                      scheme: weighting.WeightScheme,
                                      mono_map: MonotoneMap) -> tuple[float, float]:
    """(discrepancy norm, gradient norm) for a pointwise scheme under the same
    recalibration; pointwise rules are not invariant, e.g. the 1/p rule gains
    a factor of 2 under the square map."""
    mono_map.validate()
    theta = population.logits_matrix()
    masks = population.correct_masks()
    rates = population_pass_rates(theta, masks)
    if np.any(rates <= 0.0) or np.any(rates >= 1.0):
        raise ValueError("calibration check needs pass rates strictly inside (0, 1)")
    grads = population_pass_rate_gradients(theta, masks)
    d0 = population.base_weights

    w_raw = np.array([weighting.pointwise_weight(scheme, float(r)) for r in rates])
    raw = (d0 * w_raw)[:, None] * grads
    w_t = np.array(
        [weighting.pointwise_weight(scheme, mono_map.forward(float(r))) for r in rates]
    )
    slope = np.array([mono_map.dforward(float(r)) for r in rates])
    transformed = (d0 * w_t * slope)[:, None] * grads
    disc = float(np.sqrt(((raw - transformed) ** 2).sum()))
    norm = float(np.sqrt((raw ** 2).sum()))
    return disc, norm


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
    name = weighting.scheme_name(result.config.scheme)

    write_csv(
        out / "train_log.csv",
        TRAIN_CSV_HEADER,
        (
            (entry.step, name, entry.mean_exact_pass_rate, entry.active_fraction,
             entry.z_theta, entry.window_size, entry.grad_norm)
            for entry in result.step_logs
        ),
    )

    with open(out / "refdist.csv", "w", newline="\n") as fh:
        fh.write(",".join(refdist.REFERENCE_CSV_HEADER) + "\n")
        for entry, ref in zip(result.step_logs, result.references):
            for row in refdist.reference_csv_rows(entry.step, ref):
                fh.write(row + "\n")

    if result.config.log_per_prompt:
        rows = []
        for entry in result.step_logs:
            for pp in entry.per_prompt:
                # rel_multiplier = p_hat * weight, the step's weight relative
                # to the 1/p rule at the same pass rate (0 for inactive rows).
                rows.append(
                    (entry.step, pp.prompt_id, pp.p_hat, pp.weight, pp.grad_norm,
                     pp.p_hat * pp.weight)
                )
        write_csv(out / "per_prompt.csv", PER_PROMPT_CSV_HEADER, rows)
