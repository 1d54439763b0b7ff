"""Prompt-weighting schemes, their induced priors, and the utility-gap bound.

A weighting scheme maps a prompt's pass rate p in (0, 1) to a nonnegative
gradient multiplier. The pointwise family:

* ``Reinforce``      w(p) = 1
* ``Grpo``           w(p) = 1 / sqrt(p (1 - p))   (population group-normalized rule)
* ``MaxRL``          w(p) = 1 / p                 (log-likelihood rule)
* ``EntropicRisk``   w(p) = (e^eta - 1) / (eta (1 + (e^eta - 1) p)),
  which interpolates between the constant rule (eta -> 0) and, after an eta
  rescale, the 1/p rule (eta -> infinity).

The distribution-aware family reads a reference distribution over pass rates:

* ``Curve``              w(p) = f_ref(p) / F_ref(p)  (reverse hazard rate)
* ``IntegratedConvex``   w(p) = (1 - lam) / p + lam f_ref(p) / F_ref(p)
* ``IntegratedProduct``  w(p) = -(ln F_ref(p) / p + f_ref(p) ln p / F_ref(p))

A "window" or "uniform" reference is the histogram of a count row. The
weights, :func:`pointwise_weight` at any rates and :func:`grid_weights` at the
grid k/N (grid-mode training, :func:`weight_table`), work elementwise over
arrays, so each caller makes one call and a rate's weight has the same bits.

Every pointwise weight with a finite tail integral is itself a reverse hazard
rate of a unique prior CDF, F(p) = exp(-integral_p^1 w); ``induced_prior``
gives the closed forms and ``induced_prior_numeric`` recovers them by
tanh-sinh quadrature over arrays of p as an independent cross-check. With
the exactly uniform reference the Curve weight degenerates to 1/p, which is
the boundary case of that correspondence.

A weight is the derivative of a utility in pass-rate space; each is kept here
as that derivative over arrays, with no separate utility object. p times the
Curve weight, p f_ref(p) / F_ref(p), is the log utility's multiplier over 1/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import refdist
from .ioutil import write_csv
from .quadrature import tail_integral

__all__ = [
    "Reinforce",
    "Grpo",
    "MaxRL",
    "EntropicRisk",
    "Curve",
    "IntegratedConvex",
    "IntegratedProduct",
    "WeightScheme",
    "needs_reference",
    "scheme_name",
    "SCHEMES",
    "pointwise_weight",
    "grid_weights",
    "induced_prior",
    "induced_prior_numeric",
    "reverse_hazard_identity_check",
    "utility_gap_bound_check",
    "weight_table",
    "write_weight_table",
    "WEIGHT_CSV_HEADER",
]


# ---------------------------------------------------------------------------
# scheme variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reinforce:
    pass


@dataclass(frozen=True)
class Grpo:
    pass


@dataclass(frozen=True)
class MaxRL:
    pass


@dataclass(frozen=True)
class EntropicRisk:
    eta: float

    def __post_init__(self) -> None:
        # at eta = inf the weight is 0 at every rate
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta!r}")


def _check_reference(reference) -> None:
    if reference not in ("window", "uniform") and not hasattr(reference, "cdf_at"):
        raise ValueError(
            f"reference must be 'window', 'uniform' or a reference distribution, got {reference!r}"
        )


@dataclass(frozen=True)
class Curve:
    """Reverse-hazard weight under a reference distribution.

    ``reference`` is "window" by default: the histogram of the trainer's
    window each step, or of an empty row, the uniform reference, when the
    window is short. "uniform" pins the empty row. A reference object
    (anything with ``cdf_at`` and ``density_at``) is used as given. A config
    names only the two strings.
    """

    reference: object = "window"

    def __post_init__(self) -> None:
        _check_reference(self.reference)


@dataclass(frozen=True)
class IntegratedConvex:
    """Convex mix of the 1/p rule and the reverse-hazard rule."""

    lam: float
    reference: object = "window"

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        _check_reference(self.reference)


@dataclass(frozen=True)
class IntegratedProduct:
    """Product-form blend of rank and raw pass-rate information."""

    reference: object = "window"

    def __post_init__(self) -> None:
        _check_reference(self.reference)


WeightScheme = Union[
    Reinforce, Grpo, MaxRL, EntropicRisk, Curve, IntegratedConvex, IntegratedProduct
]

# each scheme's config name; a scheme's config keys are its dataclass fields
SCHEMES = {
    "reinforce": Reinforce,
    "grpo": Grpo,
    "maxrl": MaxRL,
    "entropic_risk": EntropicRisk,
    "curve": Curve,
    "integrated_convex": IntegratedConvex,
    "integrated_product": IntegratedProduct,
}


def needs_reference(scheme: WeightScheme) -> bool:
    """True for the distribution-aware schemes, which read a reference distribution."""
    return isinstance(scheme, (Curve, IntegratedConvex, IntegratedProduct))


def scheme_name(scheme: WeightScheme) -> str:
    return {cls: name for name, cls in SCHEMES.items()}[type(scheme)]


# ---------------------------------------------------------------------------
# pointwise weights
# ---------------------------------------------------------------------------

def _log(x) -> np.ndarray:
    # elementwise math.log: np.log differs from it in the last bit on ~0.35% of rates
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(math.log, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def pointwise_weight(scheme: WeightScheme, p, counts=None) -> np.ndarray:
    """Weights of the pass rates ``p`` (an array, or a scalar), each strictly
    inside (0, 1); the result has ``p``'s shape. A "window" or "uniform"
    reference is the floored histogram of the count row ``counts`` (an empty
    row is uniform) at each rate's nearest grid point; it needs the row.
    """
    p = np.asarray(p, dtype=np.float64)
    inside = (p > 0.0) & (p < 1.0)
    if not inside.all():
        bad = float(p[~inside][0])
        raise ValueError(f"pass rate must lie strictly inside (0, 1), got {bad!r}")
    if isinstance(scheme, Reinforce):
        return np.ones_like(p)
    if isinstance(scheme, Grpo):
        return 1.0 / np.sqrt(p * (1.0 - p))
    if isinstance(scheme, MaxRL):
        return 1.0 / p
    if isinstance(scheme, EntropicRisk):
        # w = a / (eta (1 + a p)) = 1 / (eta (1/a + p)) with a = e^eta - 1.
        # For eta > 30, 1/a and e^-eta agree to a relative error below e^-30,
        # and e^-eta never overflows; this also covers eta beyond exp's range,
        # where the weight reduces to 1 / (eta p).
        eta = scheme.eta
        if eta > 30.0:
            return 1.0 / (eta * (p + math.exp(-eta)))
        a = math.expm1(eta)
        return a / (eta * (1.0 + a * p))
    if not needs_reference(scheme):
        raise TypeError(f"unknown scheme {scheme!r}")
    ref = scheme.reference
    if ref not in ("window", "uniform"):
        return _reference_weight(scheme, p, ref.cdf_at(p), ref.density_at(p))
    if counts is None:
        raise ValueError(f"a {ref!r} reference needs a count row to weigh by")
    _, cdf, dens = refdist.floored_histogram(counts)
    k = refdist.query_indices(p, counts.shape[-1] + 1)
    return _reference_weight(scheme, p, cdf[k], dens[k])


def _reference_weight(scheme, p: np.ndarray, cdf: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """A distribution-aware scheme's weights at ``p``, given F_ref and f_ref there."""
    if isinstance(scheme, Curve):
        return dens / cdf
    if isinstance(scheme, IntegratedConvex):
        return (1.0 - scheme.lam) / p + scheme.lam * (dens / cdf)
    return -(_log(cdf) / p + dens * _log(p) / cdf)


def grid_weights(scheme: WeightScheme, n_rollouts: int, counts=None) -> np.ndarray:
    """w(k/N) for k = 1 ... N - 1: the bits of ``pointwise_weight(scheme,
    grid, counts)``, where ``counts=None`` stands for an empty row."""
    if n_rollouts < 2:
        raise ValueError("n_rollouts must be >= 2")
    try:
        grid = np.arange(1, n_rollouts) / n_rollouts
    except (MemoryError, ValueError):  # too large to map, or to index
        raise ValueError(
            f"n_rollouts={n_rollouts}: the weight grid is too large to allocate"
        ) from None
    if not (needs_reference(scheme) and scheme.reference in ("window", "uniform")):
        return pointwise_weight(scheme, grid)
    _, cdf, dens = refdist.floored_histogram(np.zeros(n_rollouts - 1) if counts is None else counts)
    return _reference_weight(scheme, grid, cdf, dens)


# ---------------------------------------------------------------------------
# induced priors (reverse-hazard representation of pointwise weights)
# ---------------------------------------------------------------------------

def induced_prior(scheme: WeightScheme, p: float) -> float:
    """Closed-form CDF whose reverse hazard rate equals the scheme's weight.

    Defined for the three schemes whose tail integral is finite on (0, 1]:
    constant rule -> exp(p - 1) (a point mass of e^-1 sits at p = 0);
    group-normalized rule -> exp(2 asin(sqrt p) - pi); 1/p rule -> p, the
    uniform CDF.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if isinstance(scheme, Reinforce):
        return math.exp(p - 1.0)
    if isinstance(scheme, Grpo):
        return math.exp(2.0 * math.asin(math.sqrt(p)) - math.pi)
    if isinstance(scheme, MaxRL):
        return float(p)
    raise ValueError(
        f"no closed-form induced prior for {scheme_name(scheme)}; "
        "use induced_prior_numeric with its weight function"
    )


def induced_prior_numeric(weight_fn: Callable[[np.ndarray], np.ndarray], p):
    """exp(-integral_p^1 w) by tanh-sinh quadrature, for a scalar or an array of p.

    ``weight_fn`` maps an array of rates to their weights, and is called once
    for all of ``p``. The three closed-form weights are recovered to within
    1.1e-8 on p = 0.05, 0.10, ..., 0.95 (1.1e-16 under 1 and 1/p; 1.07e-8
    under 1/sqrt(p(1-p)), where nodes that round onto 1 drop about
    2 sqrt(ulp(1)) of the integral); a diverging tail integral raises
    :class:`curverl.quadrature.DivergentIntegralError`.
    """
    p = np.asarray(p, dtype=np.float64)
    if not ((p > 0.0) & (p <= 1.0)).all():
        raise ValueError("p must lie in (0, 1]")
    return np.exp(-tail_integral(weight_fn, p, 1.0))


def reverse_hazard_identity_check(scheme: WeightScheme, p: float, step: float = 1e-5) -> float:
    """|F'(p)/F(p) - w(p)| with F' from central finite differences.

    The induced prior satisfies f = F w, so this residual measures how well
    the closed-form prior reproduces the weight; it stays below 1e-4 on the
    interior grid for all three closed-form schemes.
    """
    if not step < p < 1.0 - step:
        raise ValueError("need step < p < 1 - step")
    f_plus = induced_prior(scheme, p + step)
    f_minus = induced_prior(scheme, p - step)
    deriv = (f_plus - f_minus) / (2.0 * step)
    return float(abs(deriv / induced_prior(scheme, p) - pointwise_weight(scheme, p)))


# ---------------------------------------------------------------------------
# utility-gap transport bound
# ---------------------------------------------------------------------------

def utility_gap_bound_check(psi: Callable[[np.ndarray], np.ndarray], lipschitz: float,
                            pass_rates, ref) -> tuple[float, float]:
    """(gap, bound): gap = |U(ref) - U(own histogram)|, where U(F) is the mean
    of psi(F(p)) over the pass rates under the raw, pre-floor CDF, and
    bound = lipschitz * max density of the histogram * W1(ref, histogram).

    ``psi`` acts elementwise on an array of CDF values in [0, 1], with
    Lipschitz constant ``lipschitz`` there (e.g. ``np.log(np.maximum(u,
    1e-3))`` with 1e3). On the shared grid gap <= bound holds up to roundoff.
    """
    rates = np.asarray(pass_rates, dtype=np.float64).ravel()
    if rates.size == 0:
        raise ValueError("need at least one pass rate")
    own = refdist.distribution_from_rates(rates, ref.n_rollouts)
    gap = abs(float(np.mean(psi(ref.raw_cdf_at(rates)) - psi(own.raw_cdf_at(rates)))))
    bound = lipschitz * float(own.density.max()) * refdist.wasserstein1(ref, own)
    return gap, bound


# ---------------------------------------------------------------------------
# weight tables
# ---------------------------------------------------------------------------

WEIGHT_CSV_HEADER = ("scheme", "p", "weight", "normalized_weight")


def weight_table(scheme: WeightScheme,
                 n_rollouts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, weight, normalized weight) columns on the interior rollout grid."""
    # an overflow is reported below, naming its grid point
    with np.errstate(all="ignore"):
        weights = grid_weights(scheme, n_rollouts)
    grid = np.arange(1, n_rollouts) / n_rollouts
    bad = ~(np.isfinite(weights) & (weights >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"grid point {grid[i]:.17g}: weight must be finite and nonnegative, "
                         f"got {float(weights[i])!r}")
    # left to right: np.sum's pairwise order, or the compensated builtin sum
    # of Python 3.12 on, would move the table's last bits
    total = float(np.add.accumulate(weights)[-1])
    if not 0.0 < total < math.inf:
        raise ValueError(f"weights must have a finite, positive sum, got {total!r}")
    return grid, weights, weights / total


def write_weight_table(path, scheme: WeightScheme, n_rollouts: int) -> None:
    grid, weights, normalized = weight_table(scheme, n_rollouts)
    write_csv(path, WEIGHT_CSV_HEADER,
              ([scheme_name(scheme)] * grid.size, grid, weights, normalized))
