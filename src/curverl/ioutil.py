"""Shared CSV/JSON formatting helpers.

All numeric artifact output uses one float format, 17 significant digits
(``%.17g``), so repeated runs produce byte-identical files and diffs stay
meaningful. Two renderers produce it:

- CPython's float formatting, one value at a time: :func:`fmt_float` for
  scalars, the ``%.17g`` template for each distinct value of a CSV block,
  and for each row that the vectorized renderer leaves to it;
- :func:`fmt_float_rows`, which renders whole rows of float64 values at
  once with array operations (``population.json``'s logits and base
  weights). A row holding any value outside ``[1e-6, 1e8)`` in magnitude
  goes to the template.

CSVs are written column-wise in blocks of :data:`_CSV_BLOCK_ROWS` rows. A
numeric column repeats few values within a block (a step's p-hats sit on the
rollout grid, its weights take one value per grid point, its rows share one
step number), so each distinct value is formatted once and the strings are
gathered back into row order.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["fmt_float", "fmt_float_rows", "write_csv", "set_log_level_from_env"]

# rows rendered per write: the block's strings, not the whole file's, are
# held at once
_CSV_BLOCK_ROWS = 2**13


def fmt_float(x: float) -> str:
    """Decimal rendering that round-trips float64 exactly."""
    return format(float(x), ".17g")


# --- fmt_float_rows -------------------------------------------------------
#
# A value x with 1e-6 <= |x| < 1e8 has a decimal exponent E in [-7, 7], and
# for E >= -6 its 17 significant digits are the integer N nearest to
# |x| * 10**(16 - E), in [1e16, 1e17), ties to even: 10**k is exact for
# k <= 22, so Dekker's two-product splits that product into hi + lo with no
# error, hi is an even integer (doubles in [2**53, 2**57) are), and
# N = hi + rint(lo). E comes from log10 and is checked against the product.
# (No double in the range rounds up to N = 1e17; a lane that did would go
# to the template.)
#
# Each value then becomes one fixed-width cell of bytes, NUL marking what is
# not printed: the sign, the integer part and the fraction (each a window of
# the padded digit row below, masked to its printed length), the exponent
# for E < -4, and the separator. Deleting the NULs leaves the text.

_FAST_MIN, _FAST_MAX = 1e-6, 1e8
_E_MIN, _E_MAX = -6, 7
_POW10 = np.array([float(10**k) for k in range(16 - _E_MAX, 17 - _E_MIN)])  # exact


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into 26- and 27-bit halves, ``a == hi + lo`` exactly."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)

# The padded digit row of a value is 7 fill bytes, "0000", its 17 digits
# and fill. With shift = E (0 for the exponent form), the 28 bytes from
# column shift + 4 hold the integer part right-aligned in their first 8
# (ending in "0" when E < 0) and the fraction, after -E - 1 zeros when
# E < 0, from byte 8 on; masks keep the printed bytes of each.
_ROW_LEN, _INT_W, _FRAC_W = 40, 8, 20
_DIGITS_AT = 11  # so the last 16 digits are 4-byte aligned
# the cell: sign, integer part, point, fraction, separator; the exponent
# form has at most 16 fraction digits and puts "e-05" or "e-06" after them
_CELL_W = 1 + _INT_W + 1 + _FRAC_W + 2
# "0000" .. "9999" as one uint32 each, in memory order, from "00" .. "99"
_PAIRS = np.frombuffer(b"".join(b"%02d" % p for p in range(100)), dtype=np.uint16)
_QUADS = np.empty((100, 100, 2), dtype=np.uint16)
_QUADS[:, :, 0] = _PAIRS[:, None]
_QUADS[:, :, 1] = _PAIRS
_QUADS = _QUADS.view(np.uint32).ravel()
# by j * 10**4 + q: the position, among the 16 digits after the lead, of
# the last nonzero digit of quad q when it is the j-th quad (0 for "0000")
_PAIR_LAST = np.array([len((b"%02d" % p).rstrip(b"0")) for p in range(100)], dtype=np.uint8)
_QUAD_LAST = np.where(_PAIR_LAST > 0, 2 + _PAIR_LAST, _PAIR_LAST[:, None]).ravel()
_QUAD_SIG = np.where(_QUAD_LAST > 0, _QUAD_LAST + np.arange(0, 16, 4, dtype=np.uint8)[:, None],
                     np.uint8(0)).ravel()
_QUAD_AT = np.arange(0, 4 * 10**4, 10**4, dtype=np.int32)[:, None]  # j * 10**4
# masks that keep the printed bytes of an integer part and of a fraction,
# by their printed lengths
_INT_KEEP = np.array([[0] * (_INT_W - i) + [255] * i for i in range(_INT_W + 1)], dtype=np.uint8)
_FRAC_KEEP = np.array([[255] * f + [0] * (_FRAC_W - f) for f in range(_FRAC_W + 1)],
                      dtype=np.uint8)
_EXPONENTS = np.frombuffer(b"e-05e-06", dtype=np.uint8).reshape(2, 4)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rint(a * 10**(16 - e))`` as int64, and -1, 0 or 1 as the exact
    product is below 1e16, in [1e16, 1e17) or above; ``e`` is clipped to
    [-6, 7], so a lane outside reads -1 or 1."""
    k = _E_MAX - np.clip(e, _E_MIN, _E_MAX)
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    return (hi.astype(np.int64) + np.rint(lo).astype(np.int64),
            above.astype(np.int64) - below)


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For ``a`` in [1e-6, 1e8): the correctly rounded 17-digit integer N,
    the decimal exponent E of the rounded value, and whether E is in
    [-6, 7]; N and E are meaningful only where it is."""
    e = np.floor(np.log10(a)).astype(np.int64)  # off by at most one
    np.clip(e, _E_MIN, _E_MAX, out=e)
    n, off = _scaled(a, e)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        n[redo], off[redo] = _scaled(a[redo], e[redo])
    fast = (off == 0) & (n < 10**17) & (e >= _E_MIN) & (e <= _E_MAX)
    np.clip(e, _E_MIN, _E_MAX, out=e)  # so a lane that is not fast lays out
    return n, e, fast


def _digit_rows(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The padded digit rows of the 17-digit integers ``n``, and how many
    digits each has up to its last nonzero one."""
    lead, rest = np.divmod(n, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    quads = np.empty((4, n.size), dtype=np.int32)
    quads[0], quads[1] = np.divmod(upper, 10**4)
    quads[2], quads[3] = np.divmod(lower, 10**4)
    pad = np.zeros((n.size, _ROW_LEN), dtype=np.uint8)
    pad[:, _DIGITS_AT - 4:_DIGITS_AT] = ord("0")
    pad[:, _DIGITS_AT] = lead + ord("0")
    at = (_DIGITS_AT + 1) // 4
    pad.view(np.uint32)[:, at:at + 4] = _QUADS.take(quads).T
    quads += _QUAD_AT
    return pad, 1 + _QUAD_SIG.take(quads).max(axis=0)


def _fast_rows(values: np.ndarray) -> list[str | None]:
    """The rows of ``values`` (2-d, every value in [1e-6, 1e8) in magnitude)
    as :func:`fmt_float_rows` renders them, or None for a row holding a
    value whose exponent is outside [-6, 7]."""
    n_rows, m = values.shape
    x = values.ravel()
    n, e, fast = _digits(np.abs(x))
    pad, n_sig = _digit_rows(n)
    # the exponent form (E < -4) lays its digits out as E = 0 does
    shift = np.where(e < -4, 0, e)
    frac_len = np.maximum(n_sig - shift - 1, 0)
    starts = np.arange(4, x.size * _ROW_LEN, _ROW_LEN) + shift
    flat = pad.ravel()

    cells = np.zeros((x.size, _CELL_W), dtype=np.uint8)
    cells[:, 0] = (x < 0).view(np.uint8) * np.uint8(ord("-"))
    at = 1 + _INT_W
    np.bitwise_and(sliding_window_view(flat, _INT_W)[starts],
                   _INT_KEEP.take(np.maximum(shift + 1, 1), axis=0), out=cells[:, 1:at])
    cells[:, at] = (frac_len > 0).view(np.uint8) * np.uint8(ord("."))
    at += 1
    np.bitwise_and(sliding_window_view(flat, _FRAC_W)[starts + _INT_W],
                   _FRAC_KEEP.take(frac_len, axis=0), out=cells[:, at:at + _FRAC_W])
    del pad, flat  # so the digit rows and the text are not held at once
    small = np.flatnonzero(e < -4)
    if small.size:
        cells[small, at + 16:at + 20] = _EXPONENTS[-5 - e[small]]
    at += _FRAC_W
    cells[:, at:] = np.frombuffer(b", ", dtype=np.uint8)
    cells.reshape(n_rows, m, _CELL_W)[:, -1, at:] = (ord("\n"), 0)
    text = cells.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    ok = fast.reshape(n_rows, m).all(axis=1).tolist()
    return [row if row_ok else None for row, row_ok in zip(text, ok)]


def fmt_float_rows(values: np.ndarray) -> list[str]:
    """The rows of the 2-d float64 array ``values``, each as its cells'
    :func:`fmt_float` text joined by ``", "``.

    Rows whose values all lie in [1e-6, 1e8) in magnitude are rendered
    together with array operations; any other row (zeros, subnormals,
    large values, inf, NaN) goes through the ``%`` template.
    """
    values = np.asarray(values, dtype=np.float64)
    text: list[str | None] = [None] * len(values)
    if values.shape[1]:
        mag = np.abs(values)
        todo = np.flatnonzero(((mag >= _FAST_MIN) & (mag < _FAST_MAX)).all(axis=1))
        if todo.size:
            rows = _fast_rows(values if todo.size == len(values) else values[todo])
            for i, row in zip(todo.tolist(), rows):
                text[i] = row
    template = ", ".join(["%.17g"] * values.shape[1])
    return [row if row is not None else template % tuple(values[i].tolist())
            for i, row in enumerate(text)]


def _render_block(part: np.ndarray) -> list[str]:
    """The cells of ``part``, a block of a float64, int or bool column,
    rendering each distinct value once: a float as ``%.17g`` (the digits of
    :func:`fmt_float`), anything else with ``str``.

    Floats are keyed on their ``uint64`` view: unique float values would
    merge 0.0 with -0.0, which render differently.
    """
    if part.dtype == np.float64:
        keys, inverse = np.unique(part.view(np.uint64), return_inverse=True)
        text = ["%.17g" % x for x in keys.view(np.float64).tolist()]
    else:  # str of the Python int or bool is that of the numpy scalar
        keys, inverse = np.unique(part, return_inverse=True)
        text = list(map(str, keys.tolist()))
    return np.array(text, dtype=object)[inverse].tolist()


def write_csv(path: str | os.PathLike, header: Iterable[str],
              columns: Sequence[Sequence]) -> None:
    """Write equal-length ``columns`` (1-d arrays or sequences) under
    ``header``, one block of rows at a time.

    A column keeps one type, and its first cell picks the rendering: a
    float64 column whose first cell is a float renders as :func:`fmt_float`
    does; any other column renders each cell with ``str`` (so a list of
    Python ints that numpy can only hold as float64, such as ``[0, 2**63]``,
    keeps its digits). Within a block, each distinct value of a float, int
    or bool column is rendered once.
    """
    arrays = [np.asarray(col) for col in columns]
    n_rows = len(arrays[0]) if arrays else 0
    if any(a.ndim != 1 or len(a) != n_rows for a in arrays):
        raise ValueError("CSV columns must be 1-d and of equal length")
    numerics = [a.dtype.kind in "biu"
                or (a.dtype == np.float64 and (not n_rows or isinstance(col[0], float)))
                for col, a in zip(columns, arrays)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            cells = []
            for col, a, numeric in zip(columns, arrays, numerics):
                if numeric:
                    cells.append(_render_block(a[lo:lo + _CSV_BLOCK_ROWS]))
                else:
                    cells.append(list(map(str, col[lo:lo + _CSV_BLOCK_ROWS])))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def set_log_level_from_env() -> None:
    """Apply CURVERL_LOG_LEVEL in {error, warn, info, debug} to the root logger."""
    import logging
    import sys

    raw = os.environ.get("CURVERL_LOG_LEVEL", "warn").strip().lower()
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    if raw not in levels:
        print(f"curverl: ignoring unknown CURVERL_LOG_LEVEL={raw!r}", file=sys.stderr)
        raw = "warn"
    logging.basicConfig(level=levels[raw], format="%(levelname)s %(name)s: %(message)s")
