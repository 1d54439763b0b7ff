"""Verification suites behind ``curverl verify``.

Each suite runs a set of numeric checks with pinned tolerances and returns
one record per check; the CLI prints a pass/fail line for each. Suites:

* ``theorem1``       tanh-sinh quadrature recovery of the closed-form induced
                     priors (one array call per scheme over the 19-point
                     grid), plus the finite-difference reverse-hazard identity
* ``corollary1``     degeneration of the adaptive weight to 1/p under the
                     exactly uniform reference
* ``prop1``          the entropic-risk weight's two limits and monotonicity
* ``prop2``          the Lipschitz transport bound on the utility gap, to
                     roundoff, and its failure under an understated constant
* ``prop4``          monotone calibration invariance (and its failure for
                     the pointwise 1/p rule)
* ``aggressiveness`` monotonicity of the relative multiplier p f/F for the
                     truncated-exponential reference family
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import refdist, weighting
from .passrate import (
    DifficultyProfile,
    PromptPopulation,
    make_population,
    population_pass_rate_gradients,
    population_pass_rates,
)
from .references import (
    MonotoneMap,
    PushforwardReference,
    ReflectedTruncatedExponential,
    TruncatedExponential,
)

__all__ = ["Check", "SUITES", "run_suite", "available_suites", "calibration_gradients"]

GRID_19 = np.arange(1, 20) * 0.05


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    threshold: float
    # Comparison is <= threshold unless a minimum is required.
    at_least: bool = False

    @property
    def passed(self) -> bool:
        if self.at_least:
            return self.measured >= self.threshold
        return self.measured <= self.threshold


def _suite_theorem1() -> list[Check]:
    checks = []
    for scheme in (weighting.Reinforce(), weighting.Grpo(), weighting.MaxRL()):
        name = weighting.scheme_name(scheme)
        fn = partial(weighting.pointwise_weight, scheme)
        closed = np.array([weighting.induced_prior(scheme, float(p)) for p in GRID_19])
        worst_prior = float(np.abs(closed - weighting.induced_prior_numeric(fn, GRID_19)).max())
        worst_hazard = max(
            weighting.reverse_hazard_identity_check(scheme, float(p)) for p in GRID_19
        )
        checks.append(Check(f"induced_prior[{name}] quadrature vs closed form", worst_prior, 1e-6))
        checks.append(Check(f"reverse_hazard[{name}] finite-difference residual", worst_hazard, 1e-4))
    return checks


def _suite_corollary1() -> list[Check]:
    uniform = refdist.uniform_reference(8)
    curve = weighting.pointwise_weight(weighting.Curve(reference=uniform), uniform.grid)
    gap = curve - weighting.pointwise_weight(weighting.MaxRL(), uniform.grid)
    return [Check("curve weight under uniform reference vs 1/p", float(np.abs(gap).max()), 1e-12)]


def _suite_prop1() -> list[Check]:
    grid = np.arange(1, 10) * 0.1
    small = float(np.abs(weighting.pointwise_weight(weighting.EntropicRisk(1e-4), grid)
                         - 1.0).max())
    large = float(np.abs(50.0 * weighting.pointwise_weight(weighting.EntropicRisk(50.0), grid)
                         - 1.0 / grid).max())
    checks = [
        Check("entropic weight -> 1 as eta -> 0 (eta=1e-4)", small, 1e-4),
        Check("eta * entropic weight -> 1/p as eta -> inf (eta=50)", large, 1e-3),
    ]
    for eta in (0.5, 2.0, 10.0):
        values = weighting.pointwise_weight(weighting.EntropicRisk(eta), grid)
        min_drop = float(np.min(-np.diff(values)))
        checks.append(Check(f"entropic weight strictly decreasing (eta={eta:g})",
                            min_drop, 0.0, at_least=True))
    return checks


# (label, utility of a CDF value, its Lipschitz constant on [0, 1])
PROP2_UTILITIES = (
    ("identity", lambda u: u, 1.0),
    ("clipped_log", lambda u: np.log(np.maximum(u, 1e-3)), 1e3),
)
# every rate is on the grid, where gap <= bound holds exactly; this is roundoff
GAP_BOUND_TOL = 1e-9


def _suite_prop2(n_pairs: int = 50, n_rollouts: int = 8, seed: int = 1234) -> list[Check]:
    rng = np.random.default_rng(seed)
    grid = np.arange(1, n_rollouts) / n_rollouts

    def worst_excess(psi, lipschitz):  # over n_pairs fresh pairs of rate samples
        worst = -np.inf
        for _ in range(n_pairs):
            rates = rng.choice(grid, size=rng.integers(5, 60))
            ref = refdist.distribution_from_rates(rng.choice(grid, size=rng.integers(5, 60)),
                                                  n_rollouts)
            gap, bound = weighting.utility_gap_bound_check(psi, lipschitz, rates, ref)
            worst = max(worst, gap - bound)
        return float(worst)

    checks = [Check(f"utility gap minus transport bound ({label})",
                    worst_excess(psi, lipschitz), GAP_BOUND_TOL)
              for label, psi, lipschitz in PROP2_UTILITIES]
    # negative control: the clipped log's slope reaches 1e3, so L = 1 understates it
    label, psi, _ = PROP2_UTILITIES[1]
    checks.append(Check(f"utility gap exceeds an understated bound ({label}, L=1)",
                        worst_excess(psi, 1.0), GAP_BOUND_TOL, at_least=True))
    return checks


def _prop4_population(size: int = 20, seed: int = 7):
    return make_population(
        size, m=16,
        profile=DifficultyProfile(kind="beta", alpha=2.0, beta=3.0),
        seed=seed,
    )


def calibration_gradients(population: PromptPopulation, raw_scheme: weighting.WeightScheme,
                          mapped_scheme: weighting.WeightScheme,
                          mono_map: MonotoneMap) -> tuple[np.ndarray, np.ndarray]:
    """Exact population gradients before and after a monotone recalibration.

    The raw side is sum_x d0 w(p) grad p with ``raw_scheme``; the mapped side
    weighs the recalibrated rate u = g(p) with ``mapped_scheme`` and carries
    the chain-rule factor g'(p). With the adaptive rule on both sides and the
    reference pushed forward through g, ``Curve(PushforwardReference(ref, g))``,
    the two coincide for any strictly increasing differentiable g; a
    pointwise rule on both sides does not (1/p gains a factor of 2 under the
    square map). Requires every pass rate strictly inside (0, 1).
    """
    mono_map.validate()
    rates = population_pass_rates(population.logits, population.correct)
    if np.any(rates <= 0.0) or np.any(rates >= 1.0):
        raise ValueError("calibration check needs pass rates strictly inside (0, 1)")
    grads = population_pass_rate_gradients(population.logits, population.correct)
    d0 = population.base_weights
    w_raw = weighting.pointwise_weight(raw_scheme, rates)
    w_mapped = weighting.pointwise_weight(mapped_scheme, mono_map.forward(rates))
    slope = mono_map.dforward(rates)
    return (d0 * w_raw)[:, None] * grads, (d0 * w_mapped * slope)[:, None] * grads


def _suite_prop4() -> list[Check]:
    pop = _prop4_population()
    ref = TruncatedExponential(rate=4.0)
    checks = []
    for mono in (MonotoneMap.square(), MonotoneMap.sqrt()):
        raw, mapped = calibration_gradients(
            pop, weighting.Curve(ref), weighting.Curve(PushforwardReference(ref, mono)), mono
        )
        checks.append(Check(f"adaptive gradient invariance under {mono.name} map",
                            float(np.abs(raw - mapped).max()), 1e-8))
    raw, mapped = calibration_gradients(pop, weighting.MaxRL(), weighting.MaxRL(),
                                        MonotoneMap.square())
    checks.append(Check("pointwise 1/p rule breaks invariance (square map)",
                        float(np.sqrt(((raw - mapped) ** 2).sum())),
                        0.1 * float(np.sqrt((raw ** 2).sum())), at_least=True))
    return checks


def _suite_aggressiveness() -> list[Check]:
    checks = []
    for ref, label, decreasing in (
        (TruncatedExponential(4.0), "truncated_exponential", True),
        (ReflectedTruncatedExponential(4.0), "reflected_truncated_exponential", False),
    ):
        # p f/F, the log utility's multiplier over the 1/p rule (per_prompt.csv's
        # rel_multiplier); decreasing means low pass rates weigh more than under 1/p
        diffs = np.diff(GRID_19 * weighting.pointwise_weight(weighting.Curve(ref), GRID_19))
        if decreasing:
            checks.append(Check(f"relative multiplier strictly decreasing ({label})",
                                float(np.min(-diffs)), 0.0, at_least=True))
        else:
            checks.append(Check(f"relative multiplier strictly increasing ({label})",
                                float(np.min(diffs)), 0.0, at_least=True))
    return checks


SUITES = {
    "theorem1": _suite_theorem1,
    "corollary1": _suite_corollary1,
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "prop4": _suite_prop4,
    "aggressiveness": _suite_aggressiveness,
}


def available_suites() -> list[str]:
    return sorted(SUITES) + ["all"]


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for key in sorted(SUITES):
            out.extend(SUITES[key]())
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
