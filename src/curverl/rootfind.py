"""Brent's bracketed root finder, operation for operation as scipy's C loop.

This is a port of ``scipy/optimize/Zeros/brentq.c`` together with the checks
of its Python wrapper ``scipy.optimize.brentq``: the same statement order, the
same early returns when an endpoint is already a root, and the same errors.
:func:`brentq_lanes` runs the loop over many independent problems (lanes) in
lockstep: each branch of the C loop becomes a masked assignment or an
``np.where`` over lanes, and each iteration evaluates only the lanes that
have not converged. Every lane takes the iterates the C loop would take on its
problem alone, so on IEEE doubles it returns the same roots bit for bit.
Population logits (and every artifact built on them) thus do not depend on
whether scipy or this loop solved them, and importing curverl does not import
scipy.
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

__all__ = ["brentq_lanes"]

_MIN_RTOL = 4 * sys.float_info.epsilon  # scipy's default and smallest rtol


def brentq_lanes(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                 xtol: float = 2e-12, rtol: float = _MIN_RTOL,
                 maxiter: int = 100) -> np.ndarray:
    """Roots of L independent problems with sign-changing brackets [a_i, b_i].

    ``f(x, lanes)`` gets the current points ``x`` of the lanes still running,
    whose indices into ``a`` and ``b`` are the ascending array ``lanes``, and
    returns their function values. A lane converges when its bracket
    half-width falls below ``(xtol + rtol * |x|) / 2``. Raises ValueError if a
    lane's f(a) and f(b) have the same sign or f returns NaN, RuntimeError
    when a lane is still running after ``maxiter`` iterations; with more than
    one lane the message names the lane.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_MIN_RTOL:g})")
    xpre, xcur = (x.astype(np.float64) for x in np.broadcast_arrays(a, b))
    n = xpre.size

    def named(lane: int, message: str) -> str:
        return f"lane {lane}: {message}" if n > 1 else message

    def call(x: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        fx = np.array(f(x, lanes), dtype=np.float64)  # a copy: the loop updates it in place
        nan = np.flatnonzero(np.isnan(fx))
        if nan.size:
            j = nan[0]
            raise ValueError(named(lanes[j], f"The function value at x={float(x[j])} "
                                             "is NaN; solver cannot continue."))
        return fx

    lanes = np.arange(n)
    fpre = call(xpre, lanes)
    fcur = call(xcur, lanes)
    roots = np.where(fpre == 0, xpre, xcur)
    # neither value is zero or NaN, so comparing with 0 is comparing sign bits
    running = (fpre != 0) & (fcur != 0)
    same = np.flatnonzero(running & ((fpre < 0) == (fcur < 0)))
    if same.size:
        raise ValueError(named(same[0], "f(a) and f(b) must have different signs"))
    lanes = np.flatnonzero(running)
    xpre, xcur, fpre, fcur = xpre[lanes], xcur[lanes], fpre[lanes], fcur[lanes]
    xblk, fblk, spre, scur = np.zeros((4, lanes.size))
    for _ in range(maxiter):
        if not lanes.size:
            break
        # the C loop's assignments, in its order, on the lanes that take them;
        # fpre is never 0 here: it is the last fcur that did not converge
        new = (fcur != 0) & ((fpre < 0) != (fcur < 0))
        np.copyto(xblk, xpre, where=new)
        np.copyto(fblk, fpre, where=new)
        np.copyto(spre, xcur - xpre, where=new)
        np.copyto(scur, spre, where=new)
        swap = np.abs(fblk) < np.abs(fcur)
        for pre, cur, blk in ((xpre, xcur, xblk), (fpre, fcur, fblk)):
            np.copyto(pre, cur, where=swap)
            np.copyto(cur, blk, where=swap)
            np.copyto(blk, pre, where=swap)

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            roots[lanes[done]] = xcur[done]
            keep = ~done
            lanes, delta, sbis = lanes[keep], delta[keep], sbis[keep]
            xpre, xcur, xblk = xpre[keep], xcur[keep], xblk[keep]
            fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
            spre, scur = spre[keep], scur[keep]
            if not lanes.size:
                break

        # both step formulas for every lane; where one divides by zero, C's
        # inf or NaN fails the short-step test and the lane bisects
        with np.errstate(all="ignore"):
            # interpolate
            interp = -fcur * (xcur - xpre) / (fcur - fpre)
            # extrapolate
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrap = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interp, extrap)
        # C's MIN(a, b) macro: a < b ? a : b
        aspre, bound = np.abs(spre), 3 * np.abs(sbis) - delta
        limit = np.where(aspre < bound, aspre, bound)
        # good short step, else bisect
        good = (aspre > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < limit)
        spre = np.where(good, scur, sbis)
        scur = np.where(good, stry, sbis)

        xpre = xcur
        fpre = fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = call(xcur, lanes)
    if lanes.size:
        raise RuntimeError(named(lanes[0], f"Failed to converge after {maxiter} iterations."))
    return roots
