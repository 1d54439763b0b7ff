"""Tanh-sinh quadrature for tail integrals of weight functions.

Used as the numeric route for recovering the prior distribution induced by a
pointwise weight: ``exp(-integral(w, p, 1))``. The closed forms implemented in
:mod:`curverl.weighting` are the other route; the two must agree to 1e-6.

The rule (Takahasi and Mori 1974) maps t in [-4, 4] onto [a, b] by
x = (a + b)/2 + (b - a)/2 tanh(pi/2 sinh t) and sums the trapezoid rule in t
at step 2^-6, whose even nodes form the step-2^-5 rule. The nodes cluster
doubly exponentially at both ends, so an integrable endpoint singularity
(the group-normalized weight ``1/sqrt(p(1-p))`` at 1) needs no special path:
nodes that round onto an endpoint are dropped, which costs about
2 sqrt(ulp(b)) of mass for an inverse square-root singularity at b.

Every node of every lower limit goes to the integrand in one array call.
An integral that does not converge raises :class:`DivergentIntegralError`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["DivergentIntegralError", "tail_integral"]


class DivergentIntegralError(ArithmeticError):
    """The tail integral exceeds the magnitude cap or fails to converge."""


_LEVELS = 6  # finest step 2^-6 on t in [-4, 4]: 513 nodes per lower limit
_TOL = 1e-7  # relative to 1 + |integral|, for the level change and the end terms
_CAP = 1e6


def tail_integral(fn: Callable[[np.ndarray], np.ndarray], lower, upper: float = 1.0):
    """Integrate fn over [lower, upper]; ``lower`` is a scalar or an array.

    ``fn`` maps an array of points to an array of values. The result has
    ``lower``'s shape. Raises :class:`DivergentIntegralError` when the
    integrand is non-finite at an interior node, when the steps 2^-5 and
    2^-6 disagree, when the terms at t = +-4 have not decayed, or when the
    integral's magnitude exceeds the cap.
    """
    a = np.asarray(lower, dtype=np.float64)
    if not (a <= upper).all():
        raise ValueError("lower must be <= upper")
    t = np.arange(-4 << _LEVELS, (4 << _LEVELS) + 1) / (1 << _LEVELS)
    # distance of each node from its nearer end, as a fraction of b - a
    frac = 1.0 / (1.0 + np.exp(np.pi * np.abs(np.sinh(t))))
    width = (upper - a)[..., None]
    x = np.where(t < 0.0, a[..., None] + width * frac, upper - width * frac)
    inside = (x > a[..., None]) & (x < upper)
    # the rule's weights: dx/dt times the step
    weight = width * (np.pi * np.cosh(t) * frac * (1.0 - frac) / (1 << _LEVELS))
    nodes, weights = x[inside], weight[inside]
    terms = np.zeros(x.shape)
    with np.errstate(all="ignore"):
        values = np.broadcast_to(np.asarray(fn(nodes), dtype=np.float64), nodes.shape)
        bad = ~np.isfinite(values)
        if bad.any():
            raise DivergentIntegralError(f"integrand is non-finite at {float(nodes[bad][0])!r}")
        terms[inside] = values * weights
        total = terms.sum(axis=-1)
        change = np.abs(total - 2.0 * terms[..., ::2].sum(axis=-1))
        end = np.maximum(np.abs(terms[..., 0]), np.abs(terms[..., -1]))
        scale = _TOL * (1.0 + np.abs(total))
    for failed, what in (
        (np.abs(total) > _CAP, f"integral magnitude exceeds cap {_CAP:g}"),
        (end > scale, "terms at the ends of the rule have not decayed"),
        (change > scale, "steps 2^-5 and 2^-6 disagree"),
    ):
        if failed.any():
            i = np.flatnonzero(failed.ravel())[0]
            raise DivergentIntegralError(
                f"from {float(a.ravel()[i])!r}: {what} "
                f"(integral {total.ravel()[i]:.6g}, level change {change.ravel()[i]:.3g})"
            )
    return total
