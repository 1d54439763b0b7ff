"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report with measured values. Tolerances are pinned here and nowhere else.

Criterion 8 carries one strict xfail: the group baseline p-hat includes the
rollout it centers, so the fixed-weight estimator's expectation is
(1 - 1/N) * w * grad(p). The literal "within 3 SE of w * grad(p)" reading is
therefore unattainable for N = 8 at 1e5 batches (the shrinkage sits ~40 SE
out); the test asserting it is expected to fail, and the corrected
oracle-verified identities are asserted instead. See ``mc_gradient_mean`` in
test_trainer.py.
"""

import itertools
import json
import math
import time
from functools import partial

import numpy as np
import pytest

from curverl import refdist, weighting
from curverl.cli import main as cli_main
from curverl.evaluation import evaluate_policy
from curverl.passrate import (
    DifficultyProfile,
    make_population,
    population_pass_rate_gradients,
    population_pass_rates,
    softmax,
)
from curverl.references import (
    MonotoneMap,
    PushforwardReference,
    ReflectedTruncatedExponential,
    TruncatedExponential,
)
from curverl.trainer import (
    TrainConfig,
    run_training,
    write_training_artifacts,
)
from curverl.verify import calibration_gradients
from curverl.weighting import (
    Curve,
    EntropicRisk,
    Grpo,
    MaxRL,
    Reinforce,
)
from test_trainer import assert_results_equal, mc_gradient_mean

GRID_19 = np.arange(1, 20) * 0.05
POINTWISE = (Reinforce(), Grpo(), MaxRL())


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.budget}s"
            )
        return False


def test_criterion_1_induced_prior_recovery():
    with Stopwatch(1.0) as clock:
        worst = 0.0
        for scheme in POINTWISE:
            fn = partial(weighting.pointwise_weight, scheme)
            closed = np.array([weighting.induced_prior(scheme, float(p)) for p in GRID_19])
            numeric = weighting.induced_prior_numeric(fn, GRID_19)
            worst = max(worst, float(np.abs(closed - numeric).max()))
        assert worst < 1e-6
    report("criterion 1 (induced-prior recovery)",
           f"max |closed - quadrature| = {worst:.3e} < 1e-6 in {clock.elapsed:.2f}s")


def test_criterion_1_integrand_calls_bounded():
    # the quadrature's cost on the criterion-1 grid as counts, so a slower
    # rule shows up here rather than as a budget overrun: the points bound
    # the rule's size, the calls catch a fall back to one scalar at a time
    calls = points = 0

    def counted(fn):
        def wrapped(p):
            nonlocal calls, points
            calls += 1
            points += np.size(p)
            return fn(p)
        return wrapped

    for scheme in POINTWISE:
        weighting.induced_prior_numeric(counted(partial(weighting.pointwise_weight, scheme)),
                                        GRID_19)
    assert points <= 100_000
    assert calls <= 64
    report("criterion 1 (quadrature cost)",
           f"{points} integrand points <= 100000 in {calls} calls <= 64")


def test_criterion_2_reverse_hazard_identity():
    with Stopwatch(1.0) as clock:
        worst = 0.0
        for scheme in POINTWISE:
            for p in GRID_19:
                worst = max(worst, weighting.reverse_hazard_identity_check(scheme, float(p)))
        assert worst < 1e-4
    report("criterion 2 (reverse-hazard identity)",
           f"max residual = {worst:.3e} < 1e-4 in {clock.elapsed:.2f}s")


def test_criterion_3_uniform_reference_degeneration(tmp_path):
    with Stopwatch(30.0) as clock:
        pop = make_population(
            100, m=16, seed=31,
            profile=DifficultyProfile(kind="beta", alpha=1.0, beta=3.0),
        )
        runs = {}
        for label, scheme in (("curve", Curve(reference="uniform")), ("maxrl", MaxRL())):
            cfg = TrainConfig(steps=50, scheme=scheme, batch_size=64, n_rollouts=8,
                              t0=10, learning_rate=4.0, seed=17)
            runs[label] = run_training(pop, cfg)
            write_training_artifacts(runs[label], tmp_path / label)
        np.testing.assert_array_equal(runs["curve"].theta, runs["maxrl"].theta)
        assert_results_equal(runs["curve"], runs["maxrl"])
        curve_csv = (tmp_path / "curve" / "train_log.csv").read_text()
        maxrl_csv = (tmp_path / "maxrl" / "train_log.csv").read_text()
        assert curve_csv.replace("curve", "maxrl") == maxrl_csv
        assert (tmp_path / "curve" / "refdist.csv").read_bytes() == (
            tmp_path / "maxrl" / "refdist.csv"
        ).read_bytes()
    report("criterion 3 (uniform-reference degeneration)",
           f"50-step runs bitwise identical in {clock.elapsed:.2f}s")


def test_criterion_4_entropic_risk_limits():
    with Stopwatch(1.0) as clock:
        grid = np.arange(1, 10) * 0.1
        small = max(abs(weighting.pointwise_weight(EntropicRisk(1e-4), float(p)) - 1.0)
                    for p in grid)
        assert small < 1e-4
        large = max(abs(50.0 * weighting.pointwise_weight(EntropicRisk(50.0), float(p)) - 1.0 / p)
                    for p in grid)
        assert large < 1e-3
        for eta in (0.5, 2.0, 10.0):
            values = [weighting.pointwise_weight(EntropicRisk(eta), float(p)) for p in grid]
            assert all(a > b for a, b in zip(values, values[1:]))
    report("criterion 4 (entropic-risk limits)",
           f"sup|w-1| = {small:.2e} at eta=1e-4, sup|eta*w - 1/p| = {large:.2e} at eta=50, "
           f"strictly decreasing at eta in {{0.5, 2, 10}} in {clock.elapsed:.2f}s")


def test_criterion_5_calibration_invariance():
    with Stopwatch(5.0) as clock:
        pop = make_population(
            20, m=16, seed=7,
            profile=DifficultyProfile(kind="beta", alpha=2.0, beta=3.0),
        )
        worst = 0.0
        # a reference with its mass near 0 and one with its mass near 1
        for ref in (TruncatedExponential(4.0), ReflectedTruncatedExponential(4.0)):
            for mono in (MonotoneMap.square(), MonotoneMap.sqrt()):
                raw, mapped = calibration_gradients(
                    pop, Curve(ref), Curve(PushforwardReference(ref, mono)), mono
                )
                worst = max(worst, float(np.abs(raw - mapped).max()))
        assert worst < 1e-8
        raw, mapped = calibration_gradients(pop, MaxRL(), MaxRL(), MonotoneMap.square())
        disc = float(np.sqrt(((raw - mapped) ** 2).sum()))
        norm = float(np.sqrt((raw ** 2).sum()))
        assert disc > 0.1 * norm
    report("criterion 5 (calibration invariance)",
           f"adaptive discrepancy = {worst:.3e} < 1e-8; pointwise breaks it "
           f"({disc:.3e} > 0.1 * {norm:.3e}) in {clock.elapsed:.2f}s")


def test_criterion_6_utility_gap_transport_bound():
    with Stopwatch(5.0) as clock:
        n = 8
        rng = np.random.default_rng(64)
        grid = np.arange(1, n) / n
        worst_excess = -np.inf
        for _ in range(50):
            rates = rng.choice(grid, size=int(rng.integers(5, 80)))
            ref_rates = rng.choice(grid, size=int(rng.integers(5, 80)))
            ref = refdist.distribution_from_rates(ref_rates, n)
            for psi, lipschitz in ((lambda u: u, 1.0),
                                   (lambda u: np.log(np.maximum(u, 1e-3)), 1e3)):
                gap, bound = weighting.utility_gap_bound_check(psi, lipschitz, rates, ref)
                # every rate is on the grid, where the bound holds up to roundoff
                assert gap <= bound + 1e-9
                worst_excess = max(worst_excess, gap - bound)
    report("criterion 6 (utility-gap transport bound)",
           f"max(gap - bound) = {worst_excess:.3e} <= 1e-9 over 50 pairs "
           f"in {clock.elapsed:.2f}s")


def test_criterion_7_aggressiveness_ordering(tmp_path):
    with Stopwatch(5.0) as clock:
        # the log utility's multiplier over the 1/p rule is p f/F, p times the Curve weight
        agg = GRID_19 * weighting.pointwise_weight(Curve(TruncatedExponential(4.0)), GRID_19)
        con = GRID_19 * weighting.pointwise_weight(Curve(ReflectedTruncatedExponential(4.0)),
                                                   GRID_19)
        assert (np.diff(agg) < 0).all()
        assert (np.diff(con) > 0).all()
        # the empirical multiplier (p-hat * weight, i.e. weight relative to
        # the 1/p rule) is logged per step of every training run
        pop = make_population(40, m=16, seed=3,
                              profile=DifficultyProfile(kind="beta", alpha=2.0, beta=2.0))
        cfg = TrainConfig(steps=5, scheme=Curve(), batch_size=32, t0=3, seed=1,
                          learning_rate=2.0, min_window_count=16, log_per_prompt=True)
        write_training_artifacts(run_training(pop, cfg), tmp_path)
        lines = (tmp_path / "per_prompt.csv").read_text().splitlines()
        assert lines[0].split(",")[-1] == "rel_multiplier"
        for line in lines[1:]:
            _, _, p_hat, weight, _, rel = line.split(",")
            assert float(rel) == float(p_hat) * float(weight)
    report("criterion 7 (aggressiveness ordering)",
           f"relative multiplier monotone both ways; per-step log written "
           f"({len(lines) - 1} rows) in {clock.elapsed:.2f}s")


def _random_mc_prompts(rng, count=10, m=4):
    """(logits, correct mask) rows with one or two correct responses each."""
    prompts = []
    for _ in range(count):
        logits = rng.standard_normal(m)
        correct = np.zeros(m, dtype=bool)
        correct[rng.choice(m, size=int(rng.integers(1, 3)), replace=False)] = True
        prompts.append((logits, correct))
    return prompts


def _exact_rate_and_gradient(logits, correct):
    return (float(population_pass_rates(logits[None, :], correct[None, :])[0]),
            population_pass_rate_gradients(logits[None, :], correct[None, :])[0])


def test_criterion_8_gradient_estimator_soundness():
    with Stopwatch(60.0) as clock:
        n = 8
        rng = np.random.default_rng(2024)
        worst_identity = 0.0
        worst_z_baselined = 0.0
        worst_z_free = 0.0
        for trial, (logits, correct) in enumerate(_random_mc_prompts(rng)):
            # exact-summation score identity, score(y) = onehot(y) - pi
            probs = softmax(logits)
            p, grad = _exact_rate_and_gradient(logits, correct)
            acc = np.zeros(logits.size)
            for y in range(logits.size):
                score = -probs
                score[y] += 1.0
                acc += probs[y] * float(correct[y]) * score
            worst_identity = max(worst_identity, float(np.abs(acc - grad).max()))
            # Monte Carlo oracle at the fixed weight w(p_exact) under 1/p
            w = weighting.pointwise_weight(MaxRL(), p)
            mean, se = mc_gradient_mean(logits, correct, w, 100_000, n,
                                        np.random.default_rng(10_000 + trial))
            z = np.abs(mean - (1.0 - 1.0 / n) * w * grad) / np.maximum(se, 1e-300)
            worst_z_baselined = max(worst_z_baselined, float(z.max()))
            mean0, se0 = mc_gradient_mean(logits, correct, w, 100_000, n,
                                          np.random.default_rng(20_000 + trial),
                                          use_baseline=False)
            z0 = np.abs(mean0 - w * grad) / np.maximum(se0, 1e-300)
            worst_z_free = max(worst_z_free, float(z0.max()))
        assert worst_identity < 1e-12
        assert worst_z_baselined <= 3.0
        assert worst_z_free <= 3.0
    report("criterion 8 (gradient-estimator soundness)",
           f"score-identity residual = {worst_identity:.2e} < 1e-12; baselined estimator "
           f"within {worst_z_baselined:.2f} SE of (1-1/N) w grad; baseline-free within "
           f"{worst_z_free:.2f} SE of w grad in {clock.elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "spec defect: the group baseline includes the rollout it centers, so the "
        "estimator's expectation is (1 - 1/N) * w * grad(p); at N = 8 and 1e5 batches "
        "the literal 'within 3 SE of w * grad(p)' target sits tens of SEs away"
    ),
)
def test_criterion_8_literal_unbiasedness_as_written():
    rng = np.random.default_rng(2024)
    for trial, (logits, correct) in enumerate(_random_mc_prompts(rng)):
        p, grad = _exact_rate_and_gradient(logits, correct)
        w = weighting.pointwise_weight(MaxRL(), p)
        mean, se = mc_gradient_mean(logits, correct, w, 100_000, 8,
                                    np.random.default_rng(10_000 + trial))
        z = np.abs(mean - w * grad) / np.maximum(se, 1e-300)
        assert float(z.max()) <= 3.0


def _enumerated_pass_at_k(logits: np.ndarray, correct: np.ndarray, k: int) -> float:
    """pass@k by enumeration: each prompt sums pi over every k-tuple of its
    responses that holds a correct one, and the prompts are averaged."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    pi = e / e.sum(axis=1, keepdims=True)
    per_prompt = []
    for row, ok in zip(pi.tolist(), correct.tolist()):
        per_prompt.append(math.fsum(
            math.prod(row[j] for j in draw)
            for draw in itertools.product(range(len(row)), repeat=k)
            if any(ok[j] for j in draw)
        ))
    return math.fsum(per_prompt) / len(per_prompt)


def test_criterion_9_passk_estimator():
    with Stopwatch(30.0) as clock:
        pop = make_population(6, m=4, seed=9,
                              profile=DifficultyProfile(kind="beta", alpha=1.0, beta=2.0,
                                                        unsolvable_fraction=0.2))
        k_list = [1, 2, 3, 4, 5]
        passk, rates = evaluate_policy(pop.logits, pop.correct, k_list)
        assert not rates.all() and rates.any()  # an unsolvable and a solvable prompt
        gap = max(abs(passk[k] - _enumerated_pass_at_k(pop.logits, pop.correct, k))
                  for k in k_list)
        assert gap <= 1e-15
        # pass@1 is the mean pass rate of the trainer's own path, bit for bit
        exact = population_pass_rates(pop.logits, pop.correct)
        total = 0.0
        for q in exact.tolist():
            total += q
        assert passk[1] == total / len(exact)
        values = list(evaluate_policy(pop.logits, pop.correct, range(1, 129))[0].values())
        assert all(b >= a for a, b in zip(values, values[1:]))
    report("criterion 9 (pass@k estimator)",
           f"exact pass@k within {gap:.1e} of enumerating every k-tuple (P=6, M=4, k <= 5), "
           f"pass@1 is the mean pass rate bit for bit, nondecreasing in k up to 128 "
           f"in {clock.elapsed:.2f}s")


def test_criterion_10_directional_training_experiment():
    with Stopwatch(600.0) as clock:
        unsolved = {"reinforce": [], "curve": []}
        passk16 = {"reinforce": [], "curve": []}
        for seed in (0, 1, 2):
            pop = make_population(
                500, m=16, seed=1000 + seed,
                profile=DifficultyProfile(kind="beta", alpha=1.0, beta=5.0,
                                          unsolvable_fraction=0.10),
            )
            masks = pop.correct
            for label, scheme in (("reinforce", Reinforce()), ("curve", Curve())):
                cfg = TrainConfig(steps=300, scheme=scheme, batch_size=256, n_rollouts=8,
                                  t0=10, learning_rate=16.0, seed=seed,
                                  min_window_count=64)
                result = run_training(pop, cfg)
                rates = population_pass_rates(result.theta, masks)
                unsolved[label].append(float((rates < 1.0 / 256.0).mean()))
                passk16[label].append(evaluate_policy(result.theta, masks, [16])[0][16])
        for c, r in zip(unsolved["curve"], unsolved["reinforce"]):
            assert c <= r, f"unsolved fraction ordering violated: {c} > {r}"
        mean_curve = float(np.mean(passk16["curve"]))
        mean_reinforce = float(np.mean(passk16["reinforce"]))
        assert mean_curve >= mean_reinforce
    report("criterion 10 (directional training)",
           f"unsolved fraction curve={unsolved['curve']} <= reinforce={unsolved['reinforce']} "
           f"per seed; pass@16 mean {mean_curve:.3f} >= {mean_reinforce:.3f} "
           f"in {clock.elapsed:.1f}s")


def test_criterion_11_cmd_train_determinism(tmp_path):
    with Stopwatch(30.0) as clock:
        doc = {
            "version": 1,
            "population": {"size": 30, "m": 8, "seed": 4,
                           "difficulty": {"kind": "beta", "alpha": 2.0, "beta": 2.0,
                                          "unsolvable_fraction": 0.1}},
            "train": {"steps": 6, "scheme": {"name": "curve", "reference": "window"},
                      "batch_size": 16, "n_rollouts": 8, "t0": 3, "learning_rate": 2.0,
                      "seed": 12, "min_window_count": 8, "log_per_prompt": True},
            "eval": {"k_list": [1, 2]},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out1, out2, out3 = (tmp_path / name for name in ("a", "b", "c"))
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out2)]) == 0
        # and again from the emitted manifest alone
        assert cli_main(["train", "--config", str(out1 / "manifest.json"),
                         "--out", str(out3)]) == 0
        for name in ("train_log.csv", "refdist.csv", "per_prompt.csv", "population.json"):
            first = (out1 / name).read_bytes()
            assert first == (out2 / name).read_bytes(), f"{name} differs between reruns"
            assert first == (out3 / name).read_bytes(), f"{name} differs from manifest rerun"
    report("criterion 11 (cmd_train determinism)",
           f"logs byte-identical across reruns and manifest replay in {clock.elapsed:.2f}s")
