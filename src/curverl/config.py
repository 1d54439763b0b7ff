"""Experiment configuration: strict, versioned JSON in, manifest JSON out.

A run must be reproducible from its manifest alone, so parsing is strict:
unknown keys are errors, not warnings, and every validation failure names the
offending field.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

from .passrate import DifficultyProfile
from .trainer import TrainConfig
from .weighting import EntropicRisk, IntegratedConvex

CONFIG_VERSION = 1

__all__ = [
    "ConfigError",
    "PopulationSpec",
    "EvalSpec",
    "ExperimentConfig",
    "load_experiment_config",
    "CONFIG_VERSION",
]


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


def _require_keys(d: dict, known: set[str], required: set[str], where: str) -> None:
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


_TYPE_TEXT = {int: "an integer", float: "a finite number", bool: "true or false"}
_FLOAT_MAX = int(sys.float_info.max)


def _object(value, where: str) -> dict:
    """A copy of a section that must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return dict(value)


def _check_value(where: str, value, kind: type) -> None:
    """JSON type of one field. A boolean is never a number, and a float field
    takes an integer within float range or a finite float (Python's parser
    accepts Infinity and NaN, and integers of any size)."""
    if isinstance(value, bool):
        ok = kind is bool
    elif isinstance(value, int):
        ok = kind is int or (kind is float and abs(value) <= _FLOAT_MAX)
    else:
        ok = kind is float and isinstance(value, float) and math.isfinite(value)
    if not ok:
        raise ConfigError(f"{where} must be {_TYPE_TEXT[kind]}, got {value!r}")


def _check_types(d: dict, where: str, *classes) -> None:
    """Check each key of ``d`` that is an int, float or bool field of the
    dataclasses it is parsed into, by the field's annotation; a seed must
    also be nonnegative."""
    for cls in classes:
        for name, kind in get_type_hints(cls).items():
            if name in d and kind in _TYPE_TEXT:
                _check_value(f"{where}.{name}", d[name], kind)
                if name == "seed" and d[name] < 0:
                    raise ConfigError(f"{where}.seed must be >= 0, got {d[name]}")


def _check_list(where: str, value, kind: type) -> None:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    for item in value:
        _check_value(where, item, kind)


def _difficulty_from_dict(d: dict) -> DifficultyProfile:
    _require_keys(d, {"kind", "alpha", "beta", "unsolvable_fraction", "targets"},
                  {"kind"}, "population.difficulty")
    _check_types(d, "population.difficulty", DifficultyProfile)
    if d.get("targets") is not None:
        _check_list("population.difficulty.targets", d["targets"], float)
    try:
        return DifficultyProfile(
            kind=d["kind"],
            alpha=float(d.get("alpha", 2.0)),
            beta=float(d.get("beta", 2.0)),
            unsolvable_fraction=float(d.get("unsolvable_fraction", 0.0)),
            targets=tuple(d["targets"]) if d.get("targets") is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"population.difficulty: {exc}") from exc


def _difficulty_to_dict(p: DifficultyProfile) -> dict:
    d: dict = {"kind": p.kind}
    if p.kind == "beta":
        d["alpha"] = p.alpha
        d["beta"] = p.beta
    if p.targets is not None:
        d["targets"] = list(p.targets)
    d["unsolvable_fraction"] = p.unsolvable_fraction
    return d


@dataclass(frozen=True)
class PopulationSpec:
    size: int
    m: int = 16
    seed: int = 0
    difficulty: DifficultyProfile = field(default_factory=DifficultyProfile)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigError(f"population.size must be >= 1, got {self.size}")
        if self.m < 2:
            raise ConfigError(f"population.m must be >= 2, got {self.m}")

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "m": self.m,
            "seed": self.seed,
            "difficulty": _difficulty_to_dict(self.difficulty),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PopulationSpec":
        _require_keys(d, {"size", "m", "seed", "difficulty"}, {"size"}, "population")
        _check_types(d, "population", cls)
        difficulty = (
            _difficulty_from_dict(_object(d["difficulty"], "population.difficulty"))
            if "difficulty" in d
            else DifficultyProfile()
        )
        return cls(
            size=int(d["size"]),
            m=int(d.get("m", 16)),
            seed=int(d.get("seed", 0)),
            difficulty=difficulty,
        )

    def build(self):
        from .passrate import make_population

        return make_population(self.size, m=self.m, profile=self.difficulty, seed=self.seed)


@dataclass(frozen=True)
class EvalSpec:
    rollouts: int = 256
    k_list: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    resamples: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rollouts < 1:
            raise ConfigError(f"eval.rollouts must be >= 1, got {self.rollouts}")
        if not self.k_list:
            raise ConfigError("eval.k_list must not be empty")
        if any(k < 1 or k > self.rollouts for k in self.k_list):
            raise ConfigError(f"eval.k_list entries must lie in [1, {self.rollouts}]")
        if self.resamples < 1:
            raise ConfigError(f"eval.resamples must be >= 1, got {self.resamples}")

    def to_dict(self) -> dict:
        return {
            "rollouts": self.rollouts,
            "k_list": list(self.k_list),
            "resamples": self.resamples,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalSpec":
        _require_keys(d, {"rollouts", "k_list", "resamples", "seed"}, set(), "eval")
        _check_types(d, "eval", cls)
        if "k_list" in d:
            _check_list("eval.k_list", d["k_list"], int)
        kwargs = dict(d)
        if "k_list" in kwargs:
            kwargs["k_list"] = tuple(int(k) for k in kwargs["k_list"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    population: PopulationSpec
    train: TrainConfig
    eval: EvalSpec = field(default_factory=EvalSpec)
    out_dir: str | None = None
    version: int = CONFIG_VERSION

    def to_dict(self) -> dict:
        d = {
            "version": self.version,
            "population": self.population.to_dict(),
            "train": self.train.to_dict(),
            "eval": self.eval.to_dict(),
        }
        if self.out_dir is not None:
            d["out_dir"] = self.out_dir
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        d = _object(d, "config")
        _require_keys(
            d, {"version", "population", "train", "eval", "out_dir"},
            {"population", "train"}, "config",
        )
        _check_types(d, "config", cls)
        version = d.get("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"version: expected {CONFIG_VERSION}, got {version}")
        if d.get("out_dir") is not None and not isinstance(d["out_dir"], str):
            raise ConfigError(f"out_dir must be a string, got {d['out_dir']!r}")
        train_doc = _object(d["train"], "train")
        _check_types(train_doc, "train", TrainConfig)
        if "scheme" in train_doc:
            train_doc["scheme"] = _object(train_doc["scheme"], "train.scheme")
            _check_types(train_doc["scheme"], "train.scheme", EntropicRisk, IntegratedConvex)
        try:
            train = TrainConfig.from_dict(train_doc)
        except ValueError as exc:
            raise ConfigError(f"train: {exc}") from exc
        eval_spec = EvalSpec.from_dict(_object(d["eval"], "eval")) if "eval" in d else EvalSpec()
        return cls(
            population=PopulationSpec.from_dict(_object(d["population"], "population")),
            train=train,
            eval=eval_spec,
            out_dir=d.get("out_dir"),
            version=version,
        )

    def with_out_dir(self, out_dir: str) -> "ExperimentConfig":
        return replace(self, out_dir=out_dir)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(doc)
