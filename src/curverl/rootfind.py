"""Brent's bracketed root finder, operation for operation as scipy's C loop.

This is a port of ``scipy/optimize/Zeros/brentq.c`` together with the checks
of its Python wrapper ``scipy.optimize.brentq``: the same statement order, the
same early returns when an endpoint is already a root, and the same errors. On
IEEE doubles it returns the same root bit for bit, so population logits (and
every artifact built on them) do not depend on which of the two solved them,
and importing curverl does not import scipy.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["brentq"]

_MIN_RTOL = 4 * sys.float_info.epsilon  # scipy's default and smallest rtol


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
           rtol: float = _MIN_RTOL, maxiter: int = 100) -> float:
    """A root of ``f`` in the sign-changing bracket [a, b].

    Converges when the bracket half-width falls below
    ``(xtol + rtol * |x|) / 2``. Raises ValueError if f(a) and f(b) have the
    same sign or f returns NaN, RuntimeError after ``maxiter`` iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_MIN_RTOL:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # neither value is zero or NaN, so comparing with 0 is comparing sign bits
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # C's MIN(a, b) macro: a < b ? a : b
            limit = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
