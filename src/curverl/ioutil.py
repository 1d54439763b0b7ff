"""Shared float and CSV formatting helpers.

All numeric artifact output uses one float format, 17 significant digits
(``%.17g``, CPython's float formatting: :func:`fmt_float` for scalars), so
repeated runs produce byte-identical files and diffs stay meaningful.

CSVs are written column-wise in blocks of :data:`_CSV_BLOCK_ROWS` rows. A
numeric column repeats few values within a block (a step's p-hats sit on the
rollout grid, its weights take one value per grid point, its rows share one
step number), so each distinct value is formatted once, with the column's
separator appended, and the strings are gathered back into row order. Column
j of a k-column block fills every k-th slot, from slot j, of one row-major
list of cells, and the block is written with a single ``"".join``.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

__all__ = ["fmt_float", "write_csv", "set_log_level_from_env"]

# rows rendered per write: the block's strings, not the whole file's, are
# held at once
_CSV_BLOCK_ROWS = 2**13


def fmt_float(x: float) -> str:
    """Decimal rendering that round-trips float64 exactly."""
    return format(float(x), ".17g")


def _render_block(part: np.ndarray, sep: str) -> list[str]:
    """The cells of ``part``, a block of a float64, int or bool column, each
    followed by ``sep``, rendering each distinct value once: a float as
    ``%.17g`` (the digits of :func:`fmt_float`), anything else with ``str``.

    Floats are keyed on their ``uint64`` view: unique float values would
    merge 0.0 with -0.0, which render differently.
    """
    if part.dtype == np.float64:
        keys, inverse = np.unique(part.view(np.uint64), return_inverse=True)
        template = "%.17g" + sep
        text = [template % x for x in keys.view(np.float64).tolist()]
    else:  # str of the Python int or bool is that of the numpy scalar
        keys, inverse = np.unique(part, return_inverse=True)
        text = [str(x) + sep for x in keys.tolist()]
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
    k = len(arrays)
    seps = [","] * (k - 1) + ["\n"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n_rows)
            # row-major: row i's cells are cells[i * k:(i + 1) * k]
            cells = [""] * ((hi - lo) * k)
            for j, (col, a, numeric, sep) in enumerate(zip(columns, arrays, numerics, seps)):
                if numeric:
                    cells[j::k] = _render_block(a[lo:hi], sep)
                else:
                    cells[j::k] = [str(x) + sep for x in col[lo:hi]]
            fh.write("".join(cells))


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
