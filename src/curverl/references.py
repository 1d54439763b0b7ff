"""Continuous reference distributions on [0, 1] and monotone recalibrations.

Grid histograms (:mod:`curverl.refdist`) are what training estimates; the
analytic families here serve the diagnostics that need smooth, exactly
differentiable CDFs: weight-aggressiveness comparisons and the calibration
invariance check, where pass rates get pushed through a monotone map and the
reference must be pushed forward with them.

Every reference exposes ``cdf_at`` / ``density_at`` over arrays of pass
rates (a scalar is a 0-d array), the same protocol as the grid-based
:class:`~curverl.refdist.ReferenceDistribution`, so weighting code accepts
either kind and evaluates a whole batch of rates in one call. The monotone
maps act on arrays too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ContinuousUniform",
    "TruncatedExponential",
    "ReflectedTruncatedExponential",
    "MonotoneMap",
    "PushforwardReference",
]


# the largest x with a finite exp(x)
_MAX_EXP_ARG = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ContinuousUniform:
    """Uniform(0,1): F(p) = p, f(p) = 1."""

    def cdf_at(self, p) -> np.ndarray:
        return np.array(p, dtype=np.float64)

    def density_at(self, p) -> np.ndarray:
        return np.ones(np.shape(p))


@dataclass(frozen=True)
class TruncatedExponential:
    """Exponential(rate) truncated to [0, 1]; mass concentrates near 0.

    F(p) = (1 - exp(-rate p)) / (1 - exp(-rate)). Its reverse hazard decays
    faster than 1/p, so as a reference it reweights low pass rates more
    aggressively than the 1/p rule.
    """

    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be finite and > 0, got {self.rate!r}")

    def cdf_at(self, p) -> np.ndarray:
        return -np.expm1(-self.rate * p) / -math.expm1(-self.rate)

    def density_at(self, p) -> np.ndarray:
        return self.rate * np.exp(-self.rate * p) / -math.expm1(-self.rate)


@dataclass(frozen=True)
class ReflectedTruncatedExponential:
    """Distribution of 1 - Z for truncated-exponential Z; mass near 1.

    F(p) = (exp(rate p) - 1) / (exp(rate) - 1). As a reference it is more
    conservative than the 1/p rule on low pass rates.
    """

    rate: float

    def __post_init__(self) -> None:
        if not 0 < self.rate <= _MAX_EXP_ARG:  # exp(rate) must be finite
            raise ValueError(f"rate must be in (0, {_MAX_EXP_ARG!r}], got {self.rate!r}")

    def cdf_at(self, p) -> np.ndarray:
        return np.expm1(self.rate * p) / math.expm1(self.rate)

    def density_at(self, p) -> np.ndarray:
        # divided first: exp(rate p) alone overflows for rates above about 703
        return self.rate * (np.exp(self.rate * p) / math.expm1(self.rate))


@dataclass(frozen=True)
class MonotoneMap:
    """Strictly increasing differentiable recalibration of [0, 1].

    Bundles the forward map, its inverse, and its derivative so pushforward
    densities can be evaluated without numeric inversion. Each of the three
    acts elementwise on an array.
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    dforward: Callable[[np.ndarray], np.ndarray]

    def validate(self, samples: int = 101) -> None:
        """Reject non-increasing maps (checked on a grid, endpoints excluded)."""
        values = self.forward(np.linspace(0.0, 1.0, samples)[1:-1])
        if np.any(np.diff(values) <= 0):
            raise ValueError(f"map {self.name!r} is not strictly increasing on (0, 1)")

    @staticmethod
    def identity() -> "MonotoneMap":
        return MonotoneMap("identity", lambda t: t, lambda u: u, lambda t: np.ones(np.shape(t)))

    # np.sqrt is correctly rounded, as math.sqrt is
    @staticmethod
    def square() -> "MonotoneMap":
        return MonotoneMap("square", lambda t: t * t, np.sqrt, lambda t: 2.0 * t)

    @staticmethod
    def sqrt() -> "MonotoneMap":
        return MonotoneMap("sqrt", np.sqrt, lambda u: u * u, lambda t: 0.5 / np.sqrt(t))


@dataclass(frozen=True)
class PushforwardReference:
    """Reference for recalibrated rates u = G(p) given a reference for p.

    CDF composes with the inverse map; density follows the change-of-variables
    rule f(G^-1(u)) / G'(G^-1(u)).
    """

    base: object
    map: MonotoneMap

    def cdf_at(self, u) -> np.ndarray:
        return self.base.cdf_at(self.map.inverse(u))

    def density_at(self, u) -> np.ndarray:
        v = self.map.inverse(u)
        return self.base.density_at(v) / self.map.dforward(v)
