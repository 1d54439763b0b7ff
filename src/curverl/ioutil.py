"""Shared CSV/JSON formatting helpers.

All numeric artifact output uses a fixed 17-significant-digit decimal format
so repeated runs produce byte-identical files and diffs stay meaningful.
"""

from __future__ import annotations

import os
from typing import Iterable

__all__ = ["fmt_float", "write_csv", "set_log_level_from_env"]


def fmt_float(x: float) -> str:
    """Decimal rendering that round-trips float64 exactly."""
    return format(float(x), ".17g")


def write_csv(path: str | os.PathLike, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write rows with a fixed column order; floats via :func:`fmt_float`.

    Every row is rendered by one ``%`` template built from the first row's
    cell types: ``%.17g`` (the same digits as :func:`fmt_float`) for a float
    column, ``%s`` (``str``) for any other. A column keeps one type.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        template = None
        for row in rows:
            row = tuple(row)
            if template is None:
                template = ",".join("%.17g" if isinstance(c, float) else "%s" for c in row) + "\n"
            fh.write(template % row)


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
