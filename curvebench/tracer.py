"""Outside-in span tracing of curverl's layers.

The tracer never edits curverl. It replaces a public name where its caller
looks it up (``cli.run_training``, ``trainer.softmax``, the kernel functions
of the ``Backend`` that ``trainer.resolve_backend`` returns, ...) with a
wrapper that records one span per call: name, start, end and the enclosing
span. Spans stay in memory until the run ends. A probe whose lookup sites
no longer exist is recorded as absent, so a refactor that moves or deletes
a name degrades the trace instead of breaking the benchmark.

Per-layer metrics are named ``<module>.<function>.<stat>``; ``LAYER_METRICS``
lists every one with its unit and ``summarize`` computes them from the spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import math
import os
import time
from collections import defaultdict

# metric name -> unit; the stat after the last dot says how it is computed
LAYER_METRICS = {
    "refdist.estimate.calls": "count",
    "refdist.estimate.s": "s",
    "refdist.estimate.rates_in": "count",
    "refdist.SlidingWindow.push.calls": "count",
    "refdist.SlidingWindow.push.s": "s",
    "refdist.SlidingWindow.push.rates_kept": "count",
    "refdist.uniform_reference.calls": "count",
    "refdist.offgrid_snaps": "count",
    "weighting.pointwise_weight.calls": "count",
    "weighting.pointwise_weight.s": "s",
    "kernels.sample_responses.calls": "count",
    "kernels.sample_responses.s": "s",
    "kernels.sample_responses.rollouts": "count",
    "kernels.sample_responses.bytes_computed": "bytes",
    "kernels.accumulate_gradients.calls": "count",
    "kernels.accumulate_gradients.s": "s",
    "kernels.accumulate_gradients.bytes_computed": "bytes",
    "passrate.population_pass_rates.calls": "count",
    "passrate.population_pass_rates.s": "s",
    "passrate.softmax.calls": "count",
    "passrate.softmax.s": "s",
    "passrate.make_population.s": "s",
    "passrate.make_population.prompts_per_s": "1/s",
    "config.load_experiment_config.s": "s",
    "passrate.population_to_json.s": "s",
    "passrate.population_to_json.bytes": "bytes",
    "trainer.train_step.calls": "count",
    "trainer.train_step.self_s": "s",
    "trainer.train_step.p50_ms": "ms",
    "trainer.train_step.p95_ms": "ms",
    "trainer.run_training.s": "s",
    "trainer.write_training_artifacts.s": "s",
    "trainer.write_training_artifacts.bytes": "bytes",
    "trainer.write_training_artifacts.mb_per_s": "MB/s",
    "ioutil.write_csv.calls": "count",
    "ioutil.write_csv.s": "s",
    "ioutil.write_csv.rows": "count",
    "evaluation.evaluate_policy.calls": "count",
    "evaluation.evaluate_policy.s": "s",
    "evaluation.evaluate_policy.prompts_per_s": "1/s",
    "evaluation.pass_at_k.calls": "count",
    "evaluation.pass_at_k.s": "s",
    "evaluation.pass_at_k.resamples": "count",
    "cli.main.s": "s",
}
# a throughput stat -> (counter it divides, scale of the counter)
_RATES = {"prompts_per_s": ("prompts", 1.0), "mb_per_s": ("bytes", 1e-6)}


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _file_rows(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Counting hooks: (args, kwargs, result) -> {stat: increment}. They run after
# the span has closed, so their cost lands in the caller's span, not in the
# counted one; trace_overhead_s includes it.
_COUNTS = {
    "refdist.estimate": lambda a, k, r: {"rates_in": len(_arg(a, k, 0, "window"))},
    "refdist.SlidingWindow.push": lambda a, k, r: {
        "rates_kept": sum(1 for p in _arg(a, k, 2, "pass_rates") if 0.0 < p < 1.0)
    },
    "kernels.sample_responses": lambda a, k, r: {
        "rollouts": r.size, "bytes_computed": a[0].nbytes + a[1].nbytes + r.nbytes,
    },
    "kernels.accumulate_gradients": lambda a, k, r: {
        "bytes_computed": a[0].nbytes + a[1].nbytes + a[2].nbytes + r.nbytes,
    },
    "passrate.make_population": lambda a, k, r: {"prompts": len(r)},
    "passrate.population_to_json": lambda a, k, r: {"bytes": len(r)},
    "trainer.write_training_artifacts": lambda a, k, r: {
        "bytes": _dir_bytes(_arg(a, k, 1, "out_dir"))
    },
    "ioutil.write_csv": lambda a, k, r: {"rows": _file_rows(_arg(a, k, 0, "path"))},
    "evaluation.evaluate_policy": lambda a, k, r: {"prompts": len(_arg(a, k, 0, "theta"))},
    "evaluation.pass_at_k": lambda a, k, r: {
        "resamples": _arg(a, k, 2, "resamples", 1000) if _arg(a, k, 1, "k") >= 2 else 0
    },
}

# probe -> every "module.attribute" where a caller looks the name up
PROBES = {
    "cli.main": ["cli.main"],
    "config.load_experiment_config": ["cli.load_experiment_config"],
    "passrate.make_population": ["passrate.make_population"],
    "passrate.population_to_json": ["cli.population_to_json"],
    "passrate.population_pass_rates": ["trainer.population_pass_rates"],
    "passrate.softmax": ["trainer.softmax", "evaluation.softmax"],
    "refdist.estimate": ["refdist.estimate"],
    "refdist.uniform_reference": ["refdist.uniform_reference"],
    "refdist.SlidingWindow.push": ["refdist.SlidingWindow.push"],
    "weighting.pointwise_weight": ["weighting.pointwise_weight"],
    "trainer.run_training": ["cli.run_training"],
    "trainer.train_step": ["trainer.train_step"],
    "trainer.write_training_artifacts": ["cli.write_training_artifacts"],
    "ioutil.write_csv": ["trainer.write_csv", "evaluation.write_csv"],
    "evaluation.evaluate_policy": ["cli.evaluate_policy"],
    "evaluation.pass_at_k": ["evaluation.pass_at_k"],
}
# The kernels are reached through the Backend that trainer.resolve_backend
# returns; a trainer without the Backend registry calls them by name.
KERNELS = ("sample_responses", "accumulate_gradients")
KERNEL_SITES = ["trainer.{}", "kernels.{}"]


def _site(path: str):
    """(owner, attribute) for "module.attr" or "module.Class.attr"; None if gone."""
    module, *owners, attr = path.split(".")
    try:
        obj = importlib.import_module(f"curverl.{module}")
    except ImportError:
        return None
    for name in owners:
        obj = getattr(obj, name, None)
    if obj is None or not callable(getattr(obj, attr, None)):
        return None
    return obj, attr


class Tracer:
    """In-memory spans plus per-probe counters, filled by wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        spans, stack, ids, now = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if count is not None:
                try:
                    increments = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.absent.add(name + ".counters")  # the signature moved
                else:
                    for stat, value in increments.items():
                        self.counters[name][stat] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every probe at each of its lookup sites that still exists."""
        for name, paths in PROBES.items():
            self._install(name, paths)
        resolve = _site("trainer.resolve_backend")
        if resolve is None:
            for kernel in KERNELS:
                self._install(f"kernels.{kernel}", [p.format(kernel) for p in KERNEL_SITES])
            return
        owner, attr = resolve
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced_resolve(*args, **kwargs):
            backend = original(*args, **kwargs)
            wrapped = {k: self.wrap(f"kernels.{k}", getattr(backend, k)) for k in KERNELS}
            return dataclasses.replace(backend, **wrapped)

        setattr(owner, attr, traced_resolve)

    def _install(self, name: str, paths: list[str]) -> None:
        sites = [site for site in map(_site, paths) if site is not None]
        if not sites:
            self.absent.add(name)
        for owner, attr in sites:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")

    def summarize(self, offgrid_snaps: int | None) -> dict:
        """Per-layer metric values, self time per layer, and the absent names."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent in self.spans:
            child_ns[parent] += end - start
        training = [(start, end) for _, name, start, end, _ in self.spans
                    if name == "trainer.run_training"]
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        durations: dict[str, list[int]] = defaultdict(list)
        # self time per layer, for the whole process and inside run_training only
        layer_self_s: dict[str, float] = defaultdict(float)
        training_self_s: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            own_ns = end - start - child_ns[sid]
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += own_ns
            if name == "trainer.train_step":
                durations[name].append(end - start)
            layer = name.split(".")[0]
            layer_self_s[layer] += own_ns / 1e9
            if any(lo < start and end < hi for lo, hi in training):
                training_self_s[layer] += own_ns / 1e9

        metrics = {}
        for metric in LAYER_METRICS:
            probe, _, stat = metric.rpartition(".")
            if metric == "refdist.offgrid_snaps":
                value = offgrid_snaps or 0
            elif stat == "calls":
                value = calls[probe]
            elif stat == "s":
                value = total_ns[probe] / 1e9
            elif stat == "self_s":
                value = self_ns[probe] / 1e9
            elif stat in ("p50_ms", "p95_ms"):
                value = _percentile(durations[probe], float(stat[1:3])) / 1e6
            elif stat in _RATES:
                counter, scale = _RATES[stat]
                seconds = total_ns[probe] / 1e9
                value = self.counters[probe][counter] * scale / seconds if seconds else 0.0
            else:
                value = self.counters[probe][stat]
            metrics[metric] = value

        absent = set(self.absent)
        if offgrid_snaps is None:
            absent.add("refdist.offgrid_snaps")
        return {"metrics": metrics, "layer_self_s": dict(layer_self_s),
                "training_self_s": dict(training_self_s), "absent": sorted(absent)}


def _percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])
