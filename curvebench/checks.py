"""Output checks of one benchmark run: artifact digests and invariants read back.

A run passes when every expected artifact exists and these hold:
mean_exact_pass_rate in [0, 1]; weights finite and >= 0 (per_prompt.csv
where it is written, the per-step mean weight z_theta everywhere);
window_size <= t0 * B; every refdist.csv CDF nondecreasing and <= 1;
per_prompt.csv has steps * B rows; every pass@k in [0, 1]. Digests are
compared across the runs of one set by run.py; they are recorded, never
pinned.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path


def digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every file under run_dir, keyed by relative path."""
    return {
        str(path.relative_to(run_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _nonneg(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and value >= 0.0


def check_training(run_dir: Path, train: dict, problems: list[str]) -> float | None:
    """Check one training run's artifacts; returns its final mean_exact_pass_rate."""
    expected = ["train_log.csv", "refdist.csv", "population.json", "manifest.json"]
    if train.get("log_per_prompt"):
        expected.append("per_prompt.csv")
    missing = [name for name in expected if not (run_dir / name).is_file()]
    if missing:
        problems.append(f"{run_dir.name}: missing {missing}")
        return None
    steps, batch = train["steps"], train["batch_size"]

    log = _rows(run_dir / "train_log.csv")
    if len(log) != steps:
        problems.append(f"{run_dir.name}: train_log.csv has {len(log)} rows, want {steps}")
    for row in log:
        if not 0.0 <= float(row["mean_exact_pass_rate"]) <= 1.0:
            problems.append(f"step {row['step']}: mean_exact_pass_rate "
                            f"{row['mean_exact_pass_rate']} outside [0, 1]")
        if not _nonneg(row["z_theta"]):
            problems.append(f"step {row['step']}: mean weight z_theta {row['z_theta']}")
        if int(row["window_size"]) > train["t0"] * batch:
            problems.append(f"step {row['step']}: window_size {row['window_size']} > t0*B")

    cdf_by_step: dict[str, list[float]] = {}
    for row in _rows(run_dir / "refdist.csv"):
        cdf_by_step.setdefault(row["step"], []).append(float(row["cdf"]))
    for step, cdf in cdf_by_step.items():
        if any(b < a for a, b in zip(cdf, cdf[1:])) or max(cdf) > 1.0:
            problems.append(f"step {step}: refdist CDF not nondecreasing and <= 1")

    if train.get("log_per_prompt"):
        per_prompt = _rows(run_dir / "per_prompt.csv")
        if len(per_prompt) != steps * batch:
            problems.append(f"per_prompt.csv has {len(per_prompt)} rows, want {steps * batch}")
        bad = sum(1 for row in per_prompt if not _nonneg(row["weight"]))
        if bad:
            problems.append(f"per_prompt.csv: {bad} weights not finite and >= 0")
    return float(log[-1]["mean_exact_pass_rate"]) if log else None


def check_compare(out_dir: Path, labels: list[str], config: dict,
                  problems: list[str]) -> dict[str, float | None]:
    """Check a compare run: each scheme's training artifacts plus compare.csv."""
    final = {label: check_training(out_dir / label, config["train"], problems)
             for label in labels}
    if not (out_dir / "compare.csv").is_file() or not (out_dir / "compare_buckets.csv").is_file():
        problems.append("compare.csv or compare_buckets.csv missing")
        return final
    passk = _rows(out_dir / "compare.csv")
    want = len(labels) * len(config["eval"]["k_list"])
    if len(passk) != want:
        problems.append(f"compare.csv has {len(passk)} rows, want {want}")
    for row in passk:
        if not 0.0 <= float(row["mean_pass_at_k"]) <= 1.0:
            problems.append(f"{row['scheme']} pass@{row['k']} = {row['mean_pass_at_k']}")
    return final
