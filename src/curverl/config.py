"""Experiment configuration: strict, versioned JSON in, manifest JSON out.

A run must be reproducible from its manifest alone, so parsing is strict:
unknown keys are errors, not warnings, and every validation failure names the
offending field.

One codec serves every section. :func:`_parse` builds a dataclass from a JSON
object whose keys are the dataclass's fields; fields without a default are
required. A field's annotation decides how its value is checked: int, float,
bool and str scalars by JSON type, ``tuple[...]`` fields from a list, nested
dataclasses recursively, and a weighting scheme by its ``name`` in
:data:`curverl.weighting.SCHEMES`, so each scheme takes exactly its own
fields (a distribution-aware scheme's ``reference`` defaults to "window").
The constructors check the values. :func:`_dump` writes the fields back in
their declared order, leaving out the ones that are None.

Four keys that v1 configs and manifests may carry are read by no field any
more and are ignored on load: ``train.backend`` (there is one kernel
backend), and ``eval.resamples``, ``eval.rollouts`` and ``eval.seed`` (pass@k
is computed exactly from the closed-form pass rates, with no sampled pool and
no bootstrap). A manifest written now carries none of them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .passrate import DifficultyProfile
from .trainer import TrainConfig
from .weighting import SCHEMES, WeightScheme, scheme_name

CONFIG_VERSION = 1

__all__ = [
    "ConfigError",
    "PopulationSpec",
    "EvalSpec",
    "ExperimentConfig",
    "load_experiment_config",
    "parse_scheme",
    "CONFIG_VERSION",
]


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


_TYPE_TEXT = {int: "an integer", float: "a finite number", bool: "true or false",
              str: "a string"}
_FLOAT_MAX = int(sys.float_info.max)
# dotted paths of the keys that v1 documents may carry and no field reads
_RETIRED_KEYS = frozenset({"train.backend", "eval.resamples", "eval.rollouts", "eval.seed"})


def _check_value(where: str, value, kind: type) -> None:
    """JSON type of one field. A boolean is never a number, and a float field
    takes an integer within float range or a finite float (Python's parser
    accepts Infinity and NaN, and integers of any size)."""
    if isinstance(value, bool):
        ok = kind is bool
    elif isinstance(value, int):
        ok = kind is int or (kind is float and abs(value) <= _FLOAT_MAX)
    elif isinstance(value, float):
        ok = kind is float and math.isfinite(value)
    else:
        ok = kind is str and isinstance(value, str)
    if not ok:
        raise ConfigError(f"{where} must be {_TYPE_TEXT[kind]}, got {value!r}")


def _value(where: str, value, hint):
    """One field's value from JSON, checked by its annotation ``hint``."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if hint in _TYPE_TEXT:
        _check_value(where, value, hint)
        if where.endswith(".seed") and value < 0:
            raise ConfigError(f"{where} must be >= 0, got {value}")
        return hint(value)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        item = get_args(hint)[0]
        for entry in value:
            _check_value(where, entry, item)
        return tuple(item(entry) for entry in value)
    if hint == WeightScheme or is_dataclass(hint):
        return _parse(hint, value, where)
    return value  # an untyped field: its constructor checks it


def _parse(cls, doc, where: str = ""):
    """Build dataclass ``cls`` (or the ``WeightScheme`` that ``doc`` names)
    from the JSON object ``doc``; ``where`` is its dotted path, "" at the top."""
    label = where or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be a JSON object, got {doc!r}")
    doc = {key: value for key, value in doc.items() if f"{where}.{key}" not in _RETIRED_KEYS}
    if cls == WeightScheme:
        name = doc.pop("name", None)
        cls = SCHEMES.get(name) if isinstance(name, str) else None
        if cls is None:
            raise ConfigError(f"{label}.name must be one of {sorted(SCHEMES)}, got {name!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)}")
    missing = {name for name, f in known.items()
               if f.default is MISSING and f.default_factory is MISSING} - set(doc)
    if missing:
        raise ConfigError(f"{label}: missing keys {sorted(missing)}")
    hints = get_type_hints(cls)
    kwargs = {name: _value(f"{where}.{name}" if where else name, value, hints[name])
              for name, value in doc.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _dump(obj):
    """The JSON value of a parsed field: :func:`_parse` reads it back equal."""
    if isinstance(obj, tuple):
        return list(obj)
    if not is_dataclass(obj):
        return obj
    doc = {"name": scheme_name(obj)} if type(obj) in SCHEMES.values() else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None:
            doc[f.name] = _dump(value)
    return doc


def parse_scheme(doc, where: str = "scheme") -> WeightScheme:
    """A weighting scheme from ``{"name": ..., <the scheme's fields>}``."""
    return _parse(WeightScheme, doc, where)


@dataclass(frozen=True)
class PopulationSpec:
    size: int
    m: int = 16
    seed: int = 0
    difficulty: DifficultyProfile = field(default_factory=DifficultyProfile)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")

    def build(self):
        from .passrate import make_population

        return make_population(self.size, m=self.m, profile=self.difficulty, seed=self.seed)


@dataclass(frozen=True)
class EvalSpec:
    """Evaluation of a policy: the k of its exact pass@k."""

    k_list: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

    def __post_init__(self) -> None:
        if not self.k_list:
            raise ValueError("k_list must not be empty")
        # pass@k raises a float to the power k, so k must be a finite float
        if any(k < 1 or k > _FLOAT_MAX for k in self.k_list):
            raise ValueError("k_list entries must be >= 1 and within float range")


@dataclass(frozen=True)
class ExperimentConfig:
    version: int = field(default=CONFIG_VERSION, kw_only=True)
    population: PopulationSpec
    train: TrainConfig
    eval: EvalSpec = field(default_factory=EvalSpec)
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.version != CONFIG_VERSION:
            raise ValueError(f"version must be {CONFIG_VERSION}, got {self.version}")

    def to_json(self) -> str:
        return json.dumps(_dump(self), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        return _parse(cls, d)


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
