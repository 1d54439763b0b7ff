#!/usr/bin/env python3
"""Run one curverl command in this fresh process and report what it cost.

    python3 curvebench/child.py --result R.json [--spans S.tsv] -- <curverl args>
    python3 curvebench/child.py --result R.json --probe

run.py starts one of these per measured run. Untraced, the only wrapper is
around ``cli.run_training`` (first entry time and time inside, for setup_s and
train_steps_per_s). With ``--spans`` every probe of tracer.py is installed and
the spans are written to that file after the command returns. ``--probe``
reports versions and the kernel-backend cross-check instead of running a
command. The exit code is the command's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so run.py's launch time compares with it
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def probe() -> dict:
    """Versions, the compiled-extension state and the backend cross-check."""
    import importlib.util
    import platform

    import numpy as np
    import scipy

    try:
        from curverl import kernels
    except ImportError:  # a refactor folded the kernels elsewhere
        kernels = None

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "compiled_extension_built": importlib.util.find_spec("curverl._stepcore") is not None,
    }
    backends = getattr(kernels, "BACKENDS", {})
    if len(backends) < 2:
        info["compiled"] = "absent"
        return info
    # bitwise cross-check of every backend against the first one
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((256, 16))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    uniforms = rng.random((256, 8))
    coeff = rng.standard_normal((256, 8))
    outputs = {}
    for name, backend in backends.items():
        responses = backend.sample_responses(cum, uniforms)
        outputs[name] = (responses, backend.accumulate_gradients(probs, responses, coeff))
    first, *rest = outputs.values()
    identical = all(
        np.array_equal(first[0], r) and np.array_equal(first[1], g) for r, g in rest
    )
    info["compiled"] = "bitwise-identical" if identical else "MISMATCH"
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="where to write the JSON report")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from curverl import cli, refdist

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"curverl was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if args.probe:
        Path(args.result).write_text(json.dumps(probe()))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    report = {"train_first_ns": None, "train_ns": 0, "steps": 0}
    run_training = cli.run_training

    def timed_run_training(population, config, *rest, **kwargs):
        start = now_ns()
        if report["train_first_ns"] is None:
            report["train_first_ns"] = start
        try:
            return run_training(population, config, *rest, **kwargs)
        finally:
            report["train_ns"] += now_ns() - start
            report["steps"] += config.steps

    cli.run_training = timed_run_training
    snap_count = getattr(refdist, "offgrid_snap_count", None)
    snaps_before = snap_count() if snap_count else None

    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    rc = cli.main(command)

    if tracer is not None:
        snaps = snap_count() - snaps_before if snap_count else None
        report["trace"] = tracer.summarize(snaps)
        tracer.write_spans(args.spans)
    report["rc"] = rc
    Path(args.result).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
