#!/usr/bin/env python3
"""curverl's benchmark: run one workload as a closed loop and print its metrics.

    python3 curvebench/run.py --workload train-curve --seed 1 --seconds 30 --trace 0

Each measured run is the workload's curverl command in a fresh process
(child.py), one at a time, with BLAS/OpenMP threads capped at 1. Runs repeat
as long as the next one is expected to end within --seconds (at least
MIN_ROUNDS times). With --trace 0 the result holds the end-to-end metrics
over the runs (see END_TO_END); with --trace 1 traced and untraced runs
alternate and the result holds the per-layer metrics, medians over the traced
runs, plus trace_overhead_s. Every run's artifacts are checked (checks.py)
and their digests must agree across the runs of the set. --smoke runs each
mode once with a few training steps.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Details (digests, final mean_exact_pass_rate,
largest layer, provenance) are printed on the line before it and written to
curvebench/out/<workload>/results.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from child import now_ns
from tracer import LAYER_METRICS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3
BUDGET_S = 170  # a run must end within 180 s, whatever --seconds says


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# metric -> (unit, how the machine-speed scale applies: 1 for a time, -1 for
# a rate, 0 for memory). Slow phases of a shared machine slow every kind of
# code alike and can outlast a whole run, so each process's timings are
# scaled by CALIBRATION_REF_S / (a fixed calibration loop timed right before
# and right after it) before the median over the run is taken.
END_TO_END = {
    "run_s": ("s", 1),
    "cpu_s": ("s", 1),
    "setup_s": ("s", 1),
    "train_steps_per_s": ("1/s", -1),
    "peak_rss_mb": ("MB", 0),
}
# the calibration's time on the machine the bounds were set on, when quiet
CALIBRATION_REF_S = 0.1


def calibration_s() -> float:
    """Time a fixed mix of interpreter and small-array numpy work, like a step's."""
    import numpy as np

    logits = np.random.default_rng(0).random((256, 16))
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(400_000):
        total += i * 0.5
        table[i & 1023] = total
    for _ in range(1200):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
    return time.perf_counter() - start


def end_to_end(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Median over the processes of each metric, timings scaled to the reference speed."""
    return {
        name: (median([r[name] * (CALIBRATION_REF_S / r["calib_s"]) ** power
                       for r in records]), unit)
        for name, (unit, power) in END_TO_END.items()
    }


THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MEASUREMENT = (
    "in-process only: wall time, CPU time and peak RSS come from os.wait4 on each "
    "child process, spans from wrappers inside it; no system-wide tracing and no "
    "page-cache dropping are used"
)


class Runner:
    """Starts child.py runs one at a time and keeps what each one measured."""

    def __init__(self, workload, config: dict, out: Path, deadline_ns: int):
        self.workload = workload
        self.config = config
        self.out = out
        self.deadline_ns = deadline_ns
        self.env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_CAPS)
        # users run with the byte-code cache, and the probe process fills it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.config_path = out / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.records: list[dict] = []
        self.reference_digests: dict[str, str] | None = None
        self.last_calib_s = calibration_s()

    def child(self, extra: list[str]) -> tuple[int, dict | None, object, int, int]:
        """Run child.py; returns (exit code, its report, rusage, launch ns, end ns)."""
        result = self.out / "child.json"
        result.unlink(missing_ok=True)
        with open(self.out / "child.log", "w") as log:
            launch = now_ns()
            cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result), *extra]
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=log)
            watchdog = threading.Timer(max(0.0, (self.deadline_ns - launch) / 1e9), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = now_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        report = json.loads(result.read_text()) if result.is_file() else None
        return proc.returncode, report, usage, launch, end

    def run(self, traced: bool) -> dict:
        run_dir = self.out / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        extra = ["--spans", str(self.out / "spans.tsv")] if traced else []
        command = [*self.workload.command, "--config", str(self.config_path),
                   "--out", str(run_dir)]
        rc, report, usage, launch, end = self.child([*extra, "--", *command])
        calib_before, self.last_calib_s = self.last_calib_s, calibration_s()
        record = {"traced": traced, "rc": rc, "problems": [],
                  "calib_s": (calib_before + self.last_calib_s) / 2}
        if rc != 0 or report is None:
            tail = (self.out / "child.log").read_text()[-2000:]
            record["problems"].append(f"exit code {rc}: {tail}")
            self.records.append(record)
            return record
        record.update(
            run_s=(end - launch) / 1e9,
            cpu_s=usage.ru_utime + usage.ru_stime,
            setup_s=(report["train_first_ns"] - launch) / 1e9,
            train_steps_per_s=report["steps"] / (report["train_ns"] / 1e9),
            peak_rss_mb=usage.ru_maxrss / 1024,
            trace=report.get("trace"),
        )
        self.check(run_dir, record)
        self.records.append(record)
        return record

    def check(self, run_dir: Path, record: dict) -> None:
        problems = record["problems"]
        labels = self.workload.schemes()
        if labels:
            record["final_mean_exact_pass_rate"] = checks.check_compare(
                run_dir, labels, self.config, problems)
        else:
            record["final_mean_exact_pass_rate"] = checks.check_training(
                run_dir, self.config["train"], problems)
        digests = checks.digests(run_dir)
        if self.reference_digests is None:
            self.reference_digests = digests
        elif digests != self.reference_digests:
            changed = sorted(k for k in digests.keys() | self.reference_digests.keys()
                             if digests.get(k) != self.reference_digests.get(k))
            problems.append(f"artifact digests differ from the set's first run: {changed}")


def summary(values: list[float]) -> dict:
    """Sample count, median, quartiles and every value, for the details."""
    summary = {"n": len(values), "median": median(values), "values": values}
    if len(values) >= 2:
        summary["q1"], _, summary["q3"] = statistics.quantiles(values, n=4)
    return summary


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def provenance(runner: Runner) -> dict:
    rc, report, _, _, _ = runner.child(["--probe"])
    if rc != 0 or report is None:
        raise RuntimeError("the provenance probe failed: "
                           + (runner.out / "child.log").read_text()[-2000:])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **report,
        "git_sha": git_sha(),
        "thread_caps": THREAD_CAPS,
        "loop": "closed: one run at a time in a fresh process",
        "measurement": MEASUREMENT,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps per run, each mode once (for tests)")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stop the child too

    if not (ROOT / "src" / "curverl" / "cli.py").is_file():
        print(f"curvebench: no curverl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for the calibration and every child, so both time the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = now_ns()
    workload = WORKLOADS[args.workload]
    out = BENCH / "out" / workload.name
    out.mkdir(parents=True, exist_ok=True)
    config = workload.config(args.seed, smoke=args.smoke)
    runner = Runner(workload, config, out, deadline_ns=start + BUDGET_S * 10**9)
    prov = provenance(runner)

    # stop before a round that would end after --seconds, once MIN_ROUNDS are done
    rounds = 0
    while True:
        round_start = now_ns()
        runner.run(traced=False)
        if args.trace:
            runner.run(traced=True)
        rounds += 1
        end = now_ns()
        if args.smoke or (rounds >= MIN_ROUNDS
                          and (2 * end - round_start - start) / 1e9 > args.seconds):
            break

    ok = [r for r in runner.records if not r["problems"]]
    failed = len(runner.records) - len(ok)
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if args.trace:
        metrics = {name: (median([r["trace"]["metrics"][name] for r in traced]), unit)
                   for name, unit in LAYER_METRICS.items()}
        overhead = end_to_end(traced)["run_s"][0] - end_to_end(plain)["run_s"][0]
        metrics["trace_overhead_s"] = (overhead, "s")
    else:
        metrics = end_to_end(plain)

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "attempted": len(runner.records),
        "failed": failed,
        "failed_frac": failed / len(runner.records),
        "problems": [p for r in runner.records for p in r["problems"]],
        "digests": runner.reference_digests,
        "final_mean_exact_pass_rate": ok[0]["final_mean_exact_pass_rate"] if ok else None,
        "end_to_end": {name: summary([r[name] for r in plain])
                       for name in [*END_TO_END, "calib_s"]},
        "provenance": prov,
    }
    if traced:
        for key, largest in (("layer_self_s", "largest_layer"),
                             ("training_self_s", "largest_layer_in_training")):
            layers = {layer for r in traced for layer in r["trace"][key]}
            self_s = {layer: median([r["trace"][key].get(layer, 0.0) for r in traced])
                      for layer in layers}
            details[key] = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
            details[largest] = max(self_s, key=self_s.get) if self_s else None
        details["absent"] = sorted({a for r in traced for a in r["trace"]["absent"]})
    (out / "results.json").write_text(json.dumps(details, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and prov.get("compiled") != "MISMATCH",
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
