"""The benchmark's workloads: one curverl command each, with a config built from a seed.

Every workload draws its population, train and eval seeds from the workload
seed, so one seed always gives one set of inputs and curverl itself only
ever sees the generated config. The shapes are fixed; see README.md for why
each workload exists and which layers it stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# beta(1, 4) difficulty with 10% structurally unsolvable prompts
DIFFICULTY = {"kind": "beta", "alpha": 1.0, "beta": 4.0, "unsolvable_fraction": 0.1}

SMOKE_STEPS = 3
SMOKE_RESAMPLES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]
    population: dict
    train: dict
    eval: dict = field(default_factory=dict)

    def schemes(self) -> list[str]:
        """Scheme labels whose run directories the command writes (compare only)."""
        if "--schemes" not in self.command:
            return []
        specs = self.command[self.command.index("--schemes") + 1:]
        return [f"{i:02d}_{spec.partition(':')[0]}" for i, spec in enumerate(specs)]

    def config(self, seed: int, smoke: bool = False) -> dict:
        """Experiment config for ``seed``; ``smoke`` keeps the shapes but runs a few steps."""
        rng = random.Random(seed)
        pop_seed, train_seed, eval_seed = (rng.randrange(2**32) for _ in range(3))
        train = dict(self.train, seed=train_seed)
        evaluation = dict(self.eval, seed=eval_seed)
        if smoke:
            train["steps"] = SMOKE_STEPS
            evaluation["resamples"] = SMOKE_RESAMPLES
        return {
            "version": 1,
            "population": dict(self.population, seed=pop_seed, difficulty=DIFFICULTY),
            "train": train,
            "eval": evaluation,
        }


_CANONICAL = {"batch_size": 256, "n_rollouts": 8, "t0": 10, "learning_rate": 8.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-curve",
            why="canonical curve/window run: reference estimate, per-prompt weights, "
                "per-prompt logs and a 3.8 MB per_prompt.csv dominate; kernels are under 5%",
            command=("train",),
            population={"size": 500, "m": 16},
            train=dict(_CANONICAL, steps=300, scheme={"name": "curve", "reference": "window"},
                       log_per_prompt=True),
        ),
        Workload(
            name="train-wide",
            why="wide reinforce run: the two step kernels and the O(P*M) pass-rate softmax "
                "dominate; the window (t0=1) and artifact writing stay near zero",
            command=("train",),
            population={"size": 2000, "m": 256},
            train={"steps": 40, "scheme": {"name": "reinforce"}, "batch_size": 512,
                   "n_rollouts": 64, "t0": 1, "learning_rate": 8.0, "min_window_count": 0,
                   "log_per_prompt": False},
        ),
        Workload(
            name="compare-exact",
            why="two-scheme compare weighted at exact (off-grid) pass rates: pass@k evaluation "
                "is half the run and the scalar log/expm1 weight paths are hit",
            command=("compare", "--schemes", "integrated_product", "entropic_risk:eta=2"),
            population={"size": 500, "m": 16},
            train=dict(_CANONICAL, steps=100, scheme={"name": "reinforce"},
                       weight_at_exact_pass_rate=True),
            eval={"rollouts": 256, "k_list": [1, 2, 4, 8, 16, 32, 64, 128], "resamples": 1000},
        ),
    )
}
