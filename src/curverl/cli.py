"""Command-line front end.

Subcommands: train, verify, weights, compare, passk. Exit codes: 0 success,
1 check failure, 2 usage or config error. CURVERL_LOG_LEVEL in
{error, warn, info, debug} controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import refdist, verify, weighting
from .config import ConfigError, ExperimentConfig, load_experiment_config, parse_scheme
from .evaluation import (
    difficulty_histogram,
    write_bucket_csv,
    write_passk_csv,
    evaluate_policy,
)
from .ioutil import fmt_float, set_log_level_from_env
from .passrate import population_digest
from .trainer import run_training, write_training_artifacts

__all__ = ["main"]


def _resolve_out_dir(args, cfg: ExperimentConfig) -> Path:
    out = args.out or cfg.out_dir
    if not out:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    return Path(out)


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("missing --config")
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    return cfg


def _train_once(cfg: ExperimentConfig, population, out: Path):
    """Train on ``population``, whose arrays are read-only: the trainer
    updates a copy of the logits. ``population.json`` records the population
    by its shape and digest; the manifest's spec rebuilds it."""
    result = run_training(population, cfg.train)
    write_training_artifacts(result, out)
    record = {"size": len(population), "m": population.m,
              "sha256": population_digest(population)}
    (out / "population.json").write_text(json.dumps(record, indent=2) + "\n")
    (out / "manifest.json").write_text(replace(cfg, out_dir=str(out)).to_json())
    return result


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out_dir(args, cfg)
    _train_once(cfg, cfg.population.build(), out)
    print(f"wrote {out / 'train_log.csv'}")
    return 0


def cmd_verify(args) -> int:
    try:
        checks = verify.run_suite(args.suite)
    except KeyError:
        print(
            f"unknown suite {args.suite!r}; available: {', '.join(verify.available_suites())}",
            file=sys.stderr,
        )
        return 2
    failed = 0
    for check in checks:
        relation = ">=" if check.at_least else "<="
        status = "PASS" if check.passed else "FAIL"
        print(
            f"[{status}] {check.name}: measured={fmt_float(check.measured)} "
            f"{relation} {fmt_float(check.threshold)}"
        )
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _parse_scheme_arg(text: str) -> weighting.WeightScheme:
    """'name' or 'name:key=value,key=value', e.g. entropic_risk:eta=2; a value
    that reads as a number is one, any other is a string."""
    name, _, params = text.partition(":")
    d: dict = {"name": name.strip()}
    if params:
        for pair in params.split(","):
            key, _, value = pair.partition("=")
            key = key.strip()
            if not value:
                raise ConfigError(f"scheme parameter {pair!r} is not key=value")
            if key in d:
                raise ConfigError(f"scheme parameter {key!r} is given twice")
            try:
                d[key] = float(value)
            except ValueError:
                d[key] = value.strip()
    return parse_scheme(d)


def cmd_weights(args) -> int:
    scheme = _parse_scheme_arg(args.scheme)
    # only a distribution-aware scheme's default "window" reference reads --ref
    reads_ref = weighting.needs_reference(scheme) and scheme.reference == "window"
    if args.ref is not None and not reads_ref:
        why = (f"pins reference={scheme.reference!r}" if weighting.needs_reference(scheme)
               else "reads no reference")
        raise ConfigError(f"--ref conflicts with scheme {args.scheme!r}, which {why}")
    if reads_ref:
        if args.ref is None:
            raise ConfigError(f"scheme {args.scheme!r} needs --ref (refdist.csv path or 'uniform')")
        if args.ref == "uniform":
            reference = "uniform"  # no grid is built before grid_weights builds its own
        else:
            reference = refdist.load_reference_csv(args.ref)
            if reference.n_rollouts != args.n_rollouts:
                raise ConfigError(
                    f"--ref grid has N={reference.n_rollouts}, but --n-rollouts={args.n_rollouts}"
                )
        scheme = replace(scheme, reference=reference)
    out = args.out or "weights.csv"
    weighting.write_weight_table(out, scheme, args.n_rollouts)
    print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out_dir(args, cfg)
    schemes = [_parse_scheme_arg(s) for s in args.schemes]
    if len(schemes) < 2:
        raise ConfigError("compare needs at least 2 schemes")
    out.mkdir(parents=True, exist_ok=True)
    population = cfg.population.build()
    passk_by_label, buckets_by_label = {}, {}
    for idx, scheme in enumerate(schemes):
        label = f"{idx:02d}_{weighting.scheme_name(scheme)}"
        run_cfg = replace(cfg, train=replace(cfg.train, scheme=scheme))
        theta = _train_once(run_cfg, population, out / label).theta
        passk, rates = evaluate_policy(theta, population.correct, cfg.eval.k_list)
        passk_by_label[label] = passk
        buckets_by_label[label] = difficulty_histogram(rates)
    write_passk_csv(out / "compare.csv", passk_by_label)
    write_bucket_csv(out / "compare_buckets.csv", buckets_by_label)
    print(f"wrote {out / 'compare.csv'}")
    return 0


def cmd_passk(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    population = cfg.population.build()
    passk, rates = evaluate_policy(population.logits, population.correct, cfg.eval.k_list)
    name = weighting.scheme_name(cfg.train.scheme)
    write_passk_csv(out / "passk.csv", {name: passk})
    write_bucket_csv(out / "passk_buckets.csv", {name: difficulty_histogram(rates)})
    print(f"wrote {out / 'passk.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the training seed from the config")
    common.add_argument("--out", type=str, default=None,
                        help="output directory (overrides the config's out_dir)")
    common.add_argument("--config", type=str, default=None,
                        help="path to an experiment config or manifest JSON")

    parser = argparse.ArgumentParser(
        prog="curverl",
        description="prompt-reweighted RL lab on synthetic populations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", parents=[common], help="run one training experiment")
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(verify.available_suites())}")
    p_verify.set_defaults(func=cmd_verify)

    p_weights = sub.add_parser("weights", parents=[common],
                               help="tabulate a scheme's weights over the rollout grid")
    p_weights.add_argument("--scheme", required=True,
                           help="scheme name, optionally with params (entropic_risk:eta=2)")
    p_weights.add_argument("--n-rollouts", type=int, default=8,
                           help="rollouts per prompt, >= 2 (default 8)")
    p_weights.add_argument("--ref", type=str, default=None,
                           help="refdist.csv snapshot or 'uniform' (adaptive schemes whose "
                                "reference is the default 'window')")
    p_weights.set_defaults(func=cmd_weights)

    p_compare = sub.add_parser("compare", parents=[common],
                               help="train several schemes on one population/seed")
    p_compare.add_argument("--schemes", nargs="+", required=True)
    p_compare.set_defaults(func=cmd_compare)

    p_passk = sub.add_parser("passk", parents=[common],
                             help="evaluate pass@k of the initial policy")
    p_passk.set_defaults(func=cmd_passk)
    return parser


def main(argv=None) -> int:
    set_log_level_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"curverl: config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"curverl: invalid value: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"curverl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
