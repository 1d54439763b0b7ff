"""Adaptive Simpson quadrature for tail integrals of weight functions.

Used as the numeric route for recovering the prior distribution induced by a
pointwise weight: ``exp(-integral(w, p, 1))``. The closed forms implemented in
:mod:`curverl.weighting` are the other route; the two must agree to 1e-6.

Integrands may blow up at an endpoint (the group-normalized weight
``1/sqrt(p(1-p))`` does at 1). Such endpoints are handled by dyadic
refinement toward the singular end with a geometric tail estimate; integrals
that fail to converge raise :class:`DivergentIntegralError`.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["DivergentIntegralError", "tail_integral"]


class DivergentIntegralError(ArithmeticError):
    """The tail integral exceeds the magnitude cap or fails to converge."""


_MAX_DEPTH = 48
_DECAY_LIMIT = 0.95  # dyadic contributions must shrink at least this fast


def _eval(fn: Callable[[float], float], x: float) -> float:
    try:
        v = float(fn(x))
    except (ZeroDivisionError, OverflowError, ValueError):
        raise _NonFinite(x) from None
    if not math.isfinite(v):
        raise _NonFinite(x)
    return v


class _NonFinite(Exception):
    def __init__(self, x: float):
        self.x = x


def _adaptive(fn, a, b, fa, fm, fb, whole, tol, depth, cap):
    """Recursive bisection of a Simpson panel (Lyness 1969).

    Each half gets its own Simpson estimate from two new midpoints. The error
    of the halves is about (refined - whole) / 15, so a panel is accepted once
    that falls below tol, with the Richardson correction added, which cancels
    the leading O(h^5) error term. The acceptance threshold carries a
    1e-8 relative component so intervals with huge estimates (seen only on
    the way to a divergence diagnosis) do not demand absolute precision they
    cannot contribute.
    """
    mid = 0.5 * (a + b)
    flm = _eval(fn, 0.5 * (a + mid))
    frm = _eval(fn, 0.5 * (mid + b))
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    refined = left + right
    if abs(refined) > cap:
        raise DivergentIntegralError(f"integral magnitude exceeds cap {cap:g}")
    delta = refined - whole
    if depth <= 0 or abs(delta) < 15.0 * tol + 1e-8 * abs(refined):
        return refined + delta / 15.0
    return _adaptive(fn, a, mid, fa, flm, fm, left, tol, depth - 1, cap) + _adaptive(
        fn, mid, b, fm, frm, fb, right, tol, depth - 1, cap
    )


def _simpson(fn, a: float, b: float, tol: float, cap: float) -> float:
    fa = _eval(fn, a)
    fb = _eval(fn, b)
    fm = _eval(fn, 0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive(fn, a, b, fa, fm, fb, whole, tol, _MAX_DEPTH, cap)


def _dyadic_toward(fn, a, b, singular_right, tol, cap):
    """Integrate [a, b] when fn is non-finite at one endpoint.

    Splits the interval into dyadic panels shrinking toward the singular
    endpoint: panel k covers the points at distance [d/2, d] from it, with d
    halving each round. Convergent integrable singularities give geometrically
    decaying panel contributions, so the unreached sliver can be extrapolated
    from the decay ratio; contributions that stop decaying signal divergence.
    """
    total = 0.0
    near = b if singular_right else a
    d = b - a
    prev = None
    panel_tol = 0.1 * tol
    scale = max(abs(near), 1.0)
    while True:
        half = 0.5 * d
        if singular_right:
            lo, hi = near - d, near - half
        else:
            lo, hi = near + half, near + d
        piece = _simpson(fn, lo, hi, panel_tol, cap)
        total += piece
        if abs(total) > cap:
            raise DivergentIntegralError(f"integral magnitude exceeds cap {cap:g}")
        if abs(piece) < panel_tol:
            break
        if half < 8.0 * math.ulp(scale):
            if prev is not None and abs(prev) > 0:
                ratio = abs(piece) / abs(prev)
                if ratio < _DECAY_LIMIT:
                    total += piece * ratio / (1.0 - ratio)
                    break
            raise DivergentIntegralError(
                "contributions near the singular endpoint do not decay"
            )
        prev = piece
        d = half
    return total


def tail_integral(
    fn: Callable[[float], float],
    lower: float,
    upper: float = 1.0,
    tol: float = 1e-10,
    cap: float = 1e6,
) -> float:
    """Integrate fn over [lower, upper], tolerating non-finite endpoints."""
    if not lower < upper:
        if lower == upper:
            return 0.0
        raise ValueError("lower must be <= upper")
    try:
        try:
            return _simpson(fn, lower, upper, tol, cap)
        except _NonFinite as bad:
            scale = max(abs(lower), abs(upper), 1.0)
            if abs(bad.x - upper) <= 4.0 * math.ulp(scale):
                return _dyadic_toward(fn, lower, upper, True, tol, cap)
            if abs(bad.x - lower) <= 4.0 * math.ulp(scale):
                return _dyadic_toward(fn, lower, upper, False, tol, cap)
            raise
    except _NonFinite as bad:
        raise DivergentIntegralError(f"integrand is non-finite at {bad.x!r}") from None
