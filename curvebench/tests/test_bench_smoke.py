"""Smoke test of the benchmark: every workload, untraced and traced, a few steps each.

Checks that the result line is well formed, that its output checks passed,
and that it emits exactly the metrics BENCHMARK.json names, each with its unit.

    python3 -m pytest curvebench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "curvebench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_unit(workload: str, trace: int) -> None:
    result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in (ROOT / "curvebench").rglob("*.py"):
        target = tmp_path / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "curvebench/run.py", "--workload", "train-curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_with_no_lookup_site_is_absent_not_an_error() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "curvebench"))
    try:
        from tracer import Tracer

        tracer = Tracer()
        tracer._install("trainer.renamed_away", ["trainer.renamed_away", "nosuchmodule.f"])
        summary = tracer.summarize(offgrid_snaps=None)
    finally:
        sys.path.remove(str(ROOT / "curvebench"))
        sys.path.remove(str(ROOT / "src"))
    assert "trainer.renamed_away" in summary["absent"]
    assert "refdist.offgrid_snaps" in summary["absent"]
    assert summary["metrics"]["refdist.offgrid_snaps"] == 0
