"""Training loop: per-prompt gradients, determinism, degeneration, invariance."""

import logging
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curverl import refdist, trainer, weighting
from curverl.config import _dump, _parse
from curverl.kernels import accumulate_gradients, sample_responses
from curverl.passrate import (
    DifficultyProfile,
    PromptPopulation,
    make_population,
    pass_rates_from_probs,
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
from curverl.refdist import distribution_from_rates, offgrid_snap_count, uniform_reference
from curverl.trainer import (
    TrainConfig,
    TrainerState,
    TrainResult,
    run_training,
    train_step,
    write_training_artifacts,
)
from curverl.trainer import _sum_by_prompt
from curverl.verify import calibration_gradients
from curverl.weighting import (
    Curve,
    EntropicRisk,
    Grpo,
    IntegratedConvex,
    IntegratedProduct,
    MaxRL,
    Reinforce,
    needs_reference,
    pointwise_weight,
)
from test_refdist import assert_references_bitwise_equal, step_counts


def per_prompt_gradient(logits: np.ndarray, correct: np.ndarray, responses,
                        weight: float) -> np.ndarray:
    """Single-prompt gradient estimate (1/N) sum_i weight (r_i - p_hat) S_i
    for the N sampled ``responses`` of the prompt with this logits row and
    correct-response mask; S_i = onehot(y_i) - softmax(logits) is the score.

    The group baseline p-hat makes degenerate groups (all rewards equal)
    contribute exactly zero. Because the baseline includes rollout i itself,
    the fixed-weight expectation is (1 - 1/N) * weight * grad(p), the usual
    leave-one-in shrinkage; the direction is unbiased. This is the naive
    reference implementation the fast kernels are tested against.
    """
    responses = np.asarray(responses, dtype=np.int64)
    m = logits.shape[0]
    if np.any((responses < 0) | (responses >= m)):
        raise ValueError(f"response index out of range [0, {m})")
    probs = softmax(logits)
    rewards = correct[responses]
    p_hat = float(rewards.mean())
    acc = np.zeros(m)
    for reward, response in zip(rewards, responses):
        score = -probs
        score[response] += 1.0
        acc += weight * (float(reward) - p_hat) * score
    return acc / responses.size


def mc_gradient_mean(logits: np.ndarray, correct: np.ndarray, weight: float,
                     n_batches: int, n_rollouts: int, rng: np.random.Generator,
                     use_baseline: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and standard error of the fixed-weight gradient
    estimator over independently sampled rollout groups of one prompt, given
    as its logits row and correct-response mask.

    With ``use_baseline=True`` this is the trainer's estimator, whose
    expectation carries the (1 - 1/N) group-baseline shrinkage; with
    ``use_baseline=False`` it is the plain score-function estimator
    (1/N) sum_i weight r_i S_i, whose expectation is exactly
    weight * grad(p).
    """
    probs = softmax(logits)[None, :].repeat(n_batches, axis=0)
    cum = np.cumsum(probs, axis=1)
    uniforms = rng.random((n_batches, n_rollouts))
    responses = sample_responses(cum, uniforms)
    rewards = correct[responses]
    baseline = np.zeros((n_batches, 1))
    if use_baseline:
        baseline = rewards.sum(axis=1)[:, None] / n_rollouts
    coeff = weight * (np.array([0.0, 1.0]) - baseline) / n_rollouts
    grads = accumulate_gradients(probs, responses, rewards, coeff)
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return mean, se


def prompt(logits, correct):
    """A logits row and its correct-response mask."""
    logits = np.asarray(logits, dtype=float)
    mask = np.zeros(logits.shape, dtype=bool)
    mask[list(correct)] = True
    return logits, mask


def exact_pass_rate(logits, mask):
    return float(population_pass_rates(logits[None, :], mask[None, :])[0])


def exact_pass_rate_gradient(logits, mask):
    return population_pass_rate_gradients(logits[None, :], mask[None, :])[0]


def sample(logits, n, rng):
    """n responses of one prompt from the one response sampler."""
    return sample_responses(np.cumsum(softmax(logits))[None, :], rng.random((1, n)))[0]


def assert_results_equal(a, b):
    """Every array of two run records, theta included, matches exactly."""
    for f in fields(TrainResult):
        if f.name != "config":
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), strict=True)


def windows_read(result):
    """The window each step of ``result`` read: the count rows of the t0
    steps before it summed, empty at step 0."""
    counts, t0 = result.step_counts, result.config.t0
    return np.array([counts[max(0, t - t0):t].sum(axis=0) for t in range(len(counts))])


def window_references(result):
    """The window reference each step of ``result`` read."""
    return [refdist.distribution_from_counts(w, int(w.sum())) for w in windows_read(result)]


def calibration_invariance_gap(pop, ref, mono):
    """Max componentwise gap of the adaptive gradient under recalibration."""
    raw, mapped = calibration_gradients(pop, Curve(ref), Curve(PushforwardReference(ref, mono)),
                                        mono)
    return float(np.abs(raw - mapped).max())


def beta_population(size, seed, alpha=2.0, beta=2.0, unsolvable=0.0, m=16):
    return make_population(
        size, m=m, seed=seed,
        profile=DifficultyProfile(kind="beta", alpha=alpha, beta=beta,
                                  unsolvable_fraction=unsolvable),
    )


class TestPerPromptGradient:
    def test_degenerate_group_is_zero(self):
        logits, mask = prompt([0.0, 0.0, 0.0], {0})
        np.testing.assert_array_equal(per_prompt_gradient(logits, mask, np.zeros(4, dtype=int),
                                                          3.0), np.zeros(3))

    def test_zero_weight_is_zero(self):
        logits, mask = prompt([0.3, -0.3], {0})
        responses = sample(logits, 8, np.random.default_rng(0))
        np.testing.assert_array_equal(per_prompt_gradient(logits, mask, responses, 0.0),
                                      np.zeros(2))

    def test_kernel_path_matches_reference_implementation(self):
        from curverl import kernels as kern

        rng = np.random.default_rng(4)
        for _ in range(10):
            logits, mask = prompt(rng.standard_normal(6), {0, 3})
            responses = sample(logits, 8, rng)
            w = float(rng.uniform(0.5, 4.0))
            slow = per_prompt_gradient(logits, mask, responses, w)
            probs = softmax(logits)[None, :]
            rewards = mask[responses]
            coeff = (w * (np.array([0.0, 1.0]) - rewards.mean()) / 8)[None, :]
            fast = kern.accumulate_gradients(probs, responses[None, :], rewards[None, :],
                                             coeff)[0]
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-15)

    def test_fixed_weight_estimator_expectations(self):
        # Monte Carlo oracle: with the group baseline the estimator's mean is
        # (1 - 1/N) * w * grad(p) -- the baseline includes the rollout it
        # centers -- while the baseline-free form is exactly unbiased.
        pr = prompt([0.5, -0.2, 0.1, 0.0], {1, 2})
        w, n = 2.5, 8
        grad = exact_pass_rate_gradient(*pr)
        mean, se = mc_gradient_mean(*pr, w, 20_000, n, np.random.default_rng(6))
        assert np.all(np.abs(mean - (1 - 1 / n) * w * grad) <= 4.0 * se + 1e-12)
        mean0, se0 = mc_gradient_mean(*pr, w, 20_000, n, np.random.default_rng(7),
                                      use_baseline=False)
        assert np.all(np.abs(mean0 - w * grad) <= 4.0 * se0 + 1e-12)


class TestTrainStep:
    def test_all_unsolvable_population_is_inert(self):
        pop = make_population(10, m=8, seed=0,
                              profile=DifficultyProfile(kind="beta", unsolvable_fraction=0.5))
        # keep only the unsolvable prompts
        unsolvable = ~pop.correct.any(axis=1)
        pop = PromptPopulation(pop.logits[unsolvable], pop.correct[unsolvable])
        cfg = TrainConfig(steps=1, scheme=Reinforce(), batch_size=16, seed=0)
        state = TrainerState(pop, cfg)
        theta_before = state.theta.copy()
        train_step(state)
        rec = state.record
        np.testing.assert_array_equal(state.theta, theta_before)
        assert rec.active_fraction[0] == 0.0
        assert rec.step_counts[0].sum() == 0
        assert rec.grad_norm[0] == 0.0

    def test_mean_exact_pass_rate_stays_in_unit_interval(self):
        # every prompt solved: the d0-weighted mean of rates that are all 1
        # can round past 1 in the dot product
        rng = np.random.default_rng(3)
        cfg = TrainConfig(steps=1, scheme=Reinforce(), batch_size=4)
        means = []
        for _ in range(200):
            size = int(rng.integers(2, 20))
            d0 = rng.random(size)
            pop = PromptPopulation(rng.standard_normal((size, 4)), np.ones((size, 4), dtype=bool),
                                   base_weights=d0 / d0.sum())
            means.append(TrainerState(pop, cfg).mean_exact_pass_rate())
        assert all(0.0 <= m <= 1.0 for m in means)

    @pytest.mark.parametrize("planted, message", [
        (np.inf, "step 2: gradient norm is nan"),
        (-np.inf, "step 2: updated logits are not finite"),
    ])
    def test_non_finite_logit_names_the_step(self, planted, message):
        pop = beta_population(20, seed=4)
        cfg = TrainConfig(steps=4, scheme=Reinforce(), batch_size=32, seed=1)
        state = TrainerState(pop, cfg)
        train_step(state)
        train_step(state)
        state.theta[:, 0] = planted
        # the cached softmax and rates must describe theta, so they see the
        # planted value too; a +inf logit makes the softmax compute inf - inf
        with np.errstate(invalid="ignore"):
            state.probs[:] = softmax(state.theta)
            state._exact[:] = population_pass_rates(state.theta, state.masks)
        theta, probs = state.theta.copy(), state.probs.copy()
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
            train_step(state)
        # either check raises before the step writes the policy or its cache
        np.testing.assert_array_equal(state.theta, theta)
        np.testing.assert_array_equal(state.probs.view(np.uint64), probs.view(np.uint64))

    def test_step_past_the_run_is_rejected_before_it_moves(self):
        pop = beta_population(20, seed=4)
        cfg = TrainConfig(steps=2, scheme=Curve(), batch_size=32, seed=1, min_window_count=0)
        state = TrainerState(pop, cfg)
        train_step(state)
        train_step(state)
        moved = (state.theta, state.probs, state.record.step_counts)
        before = [a.copy() for a in moved]
        with pytest.raises(ValueError, match=r"step 2: .*steps=2"):
            train_step(state)
        for now, then in zip(moved, before):
            assert now.tobytes() == then.tobytes()
        assert state.step == 2

    def test_cold_start_curve_step_equals_maxrl_step(self):
        pop = beta_population(30, seed=1)
        thetas = {}
        for name, scheme in (("curve", Curve()), ("maxrl", MaxRL())):
            cfg = TrainConfig(steps=1, scheme=scheme, batch_size=16, seed=7, learning_rate=1.0)
            state = TrainerState(pop, cfg)
            train_step(state)
            thetas[name] = state.theta
        np.testing.assert_array_equal(thetas["curve"], thetas["maxrl"])

    def test_active_rates_enter_window_inactive_do_not(self):
        pop = beta_population(20, seed=2, unsolvable=0.3)
        cfg = TrainConfig(steps=1, scheme=Reinforce(), batch_size=64, seed=3)
        state = TrainerState(pop, cfg)
        train_step(state)
        rec = state.record
        row = step_counts(rec.p_hat[0], cfg.n_rollouts)
        assert 0 < row.sum() < cfg.batch_size
        np.testing.assert_array_equal(rec.step_counts[0], row)

    def test_weight_scaling_scales_gradient_exactly(self):
        # scaling all weights by c > 0 scales the batch gradient by c and
        # leaves its direction unchanged; bitwise for power-of-two c
        from curverl import kernels as kern
        from curverl.passrate import softmax

        rng = np.random.default_rng(12)
        probs = softmax(rng.standard_normal((16, 8)))
        cum = np.cumsum(probs, axis=1)
        responses = kern.sample_responses(cum, rng.random((16, 8)))
        rewards = rng.random((16, 8)) < 0.5
        coeff = rng.standard_normal((16, 2))
        grad = kern.accumulate_gradients(probs, responses, rewards, coeff)
        np.testing.assert_array_equal(
            kern.accumulate_gradients(probs, responses, rewards, 2.0 * coeff), 2.0 * grad
        )
        scaled = kern.accumulate_gradients(probs, responses, rewards, 3.7 * coeff)
        np.testing.assert_allclose(scaled, 3.7 * grad, rtol=1e-12, atol=1e-15)
        cos = (scaled.ravel() @ grad.ravel()) / (
            np.linalg.norm(scaled) * np.linalg.norm(grad)
        )
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_determinism_bitwise(self):
        pop = beta_population(25, seed=6)
        cfg = TrainConfig(steps=8, scheme=Curve(), batch_size=16, t0=3, seed=9,
                          learning_rate=2.0, min_window_count=8)
        a = run_training(pop, cfg)
        b = run_training(pop, cfg)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert_results_equal(a, b)

    def test_window_size_bounded_by_t0_times_batch(self):
        pop = beta_population(30, seed=8)
        cfg = TrainConfig(steps=12, scheme=Reinforce(), batch_size=16, t0=3, seed=2)
        result = run_training(pop, cfg)
        assert all(windows_read(result).sum(axis=1) <= 3 * 16)

    @pytest.mark.parametrize("scheme", [Curve(), Reinforce()], ids=["curve", "reinforce"])
    @pytest.mark.parametrize("t0", [1, 3, 11])
    def test_reference_is_the_histogram_of_the_last_t0_steps(self, scheme, t0):
        # oracle: the logged float p-hats of steps t - t0 .. t - 1, binned
        # by the path every other rate takes
        pop = beta_population(30, seed=5, unsolvable=0.2)
        cfg = TrainConfig(steps=9, scheme=scheme, batch_size=16, t0=t0, seed=4,
                          learning_rate=2.0, min_window_count=8)
        result = run_training(pop, cfg)
        for t, ref in enumerate(window_references(result)):
            rates = result.p_hat[max(0, t - t0):t].ravel()
            rates = rates[(rates > 0.0) & (rates < 1.0)]
            expected = (distribution_from_rates(rates, cfg.n_rollouts) if rates.size
                        else uniform_reference(cfg.n_rollouts))
            assert_references_bitwise_equal(ref, expected)

    def test_huge_t0_runs_as_t0_equal_to_steps(self, tmp_path):
        # the record has one count row per step of the run, however large t0 is
        pop = beta_population(30, seed=5)
        runs = [run_training(pop, TrainConfig(steps=5, scheme=Curve(), batch_size=16, t0=t0,
                                              seed=4, min_window_count=8))
                for t0 in (10**12, 5)]
        assert_results_equal(runs[0], runs[1])
        for label, run in zip(("huge", "steps"), runs):
            write_training_artifacts(run, tmp_path / label)
        for name in ("train_log.csv", "refdist.csv"):
            huge, steps = (tmp_path / label / name for label in ("huge", "steps"))
            assert huge.read_bytes() == steps.read_bytes()
        big = TrainerState(pop, TrainConfig(steps=5, scheme=Curve(), t0=10**12))
        assert big.record.step_counts.shape == (5, 7)

    def test_active_fraction_times_batch_is_integer(self):
        pop = beta_population(30, seed=8, unsolvable=0.2)
        cfg = TrainConfig(steps=5, scheme=Reinforce(), batch_size=32, seed=2)
        result = run_training(pop, cfg)
        for fraction in result.active_fraction:
            count = fraction * 32
            assert abs(count - round(count)) < 1e-12


STEP_SCHEMES = (
    Reinforce(), Grpo(), MaxRL(), EntropicRisk(eta=2.0), Curve(), Curve(reference="uniform"),
    IntegratedConvex(lam=0.5), IntegratedProduct(),
)


class TestStepInvariants:
    @given(
        scheme=st.sampled_from(STEP_SCHEMES),
        n_rollouts=st.integers(2, 12),
        batch_size=st.integers(1, 24),
        t0=st.integers(1, 4),
        steps=st.integers(1, 6),
        min_window_count=st.integers(0, 40),
        exact=st.booleans(),
        unsolvable=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_step_keeps_the_invariants(self, scheme, n_rollouts, batch_size, t0, steps,
                                             min_window_count, exact, unsolvable, seed):
        pop = beta_population(12, seed=seed, alpha=1.0, beta=2.0, unsolvable=unsolvable, m=6)
        cfg = TrainConfig(steps=steps, scheme=scheme, batch_size=batch_size,
                          n_rollouts=n_rollouts, t0=t0, learning_rate=4.0, seed=seed,
                          min_window_count=min_window_count, weight_at_exact_pass_rate=exact)
        result = run_training(pop, cfg)
        windows = windows_read(result)
        for t, ref in enumerate(window_references(result)):
            p_hat, weights = result.p_hat[t], result.weights[t]
            assert np.all((p_hat >= 0.0) & (p_hat <= 1.0))
            assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
            inactive = (p_hat == 0.0) | (p_hat == 1.0)
            assert np.all(weights[inactive] == 0.0)
            assert windows[t].sum() <= t0 * batch_size
            assert np.all(np.diff(ref.cdf) >= 0.0) and np.all(ref.cdf <= 1.0)
            assert 0.0 <= result.mean_exact_pass_rate[t] <= 1.0


def updates_of_steps(state, steps):
    """Run ``steps`` steps; yield each step's grad_norm, the rows it moved
    and their batch-mean gradient, the update direction."""
    sums = []

    def capture(batch, grads):
        rows, total = _sum_by_prompt(batch, grads)
        # the step scales and squares ``total`` in place
        sums.append((rows.copy(), total.copy()))
        return rows, total

    with mock.patch.object(trainer, "_sum_by_prompt", capture):
        for _ in range(steps):
            t = state.step
            train_step(state)
            rows, total = sums.pop()
            yield state.record.grad_norm[t], rows, total / state.config.batch_size


GRAD_NORM_DRAWS = dict(
    size=st.integers(1, 40),
    m=st.integers(2, 17),
    batch_size=st.integers(1, 80),
    exact=st.booleans(),
    hopeless=st.booleans(),
    seed=st.integers(0, 2**16),
)


def grad_norm_state(size, m, batch_size, exact, hopeless, seed):
    pop = beta_population(size, seed=seed, alpha=1.0, beta=2.0, m=m)
    if hopeless:
        pop = PromptPopulation(pop.logits, np.zeros(pop.correct.shape, dtype=bool))
    cfg = TrainConfig(steps=4, scheme=Reinforce(), batch_size=batch_size, n_rollouts=4,
                      learning_rate=4.0, seed=seed, weight_at_exact_pass_rate=exact)
    return TrainerState(pop, cfg)


def full_matrix_norm(state, rows, mean):
    """The norm as the sum of squares over the whole (P, M) update."""
    z = np.zeros(state.theta.shape)
    z[rows] = mean * mean
    return float(np.sqrt(z.sum()))


class TestGradNorm:
    """grad_norm is sqrt(sum of squares) of the update direction over the
    rows the step moved; the update is zero on every other row."""

    @given(**GRAD_NORM_DRAWS)
    # more draws than prompts, so prompts repeat, and no prompt is ever active
    @example(size=3, m=4, batch_size=80, exact=False, hopeless=True, seed=0)
    @example(size=5, m=3, batch_size=64, exact=True, hopeless=False, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_grad_norm_is_the_norm_of_the_updated_rows(self, **draw):
        state = grad_norm_state(**draw)
        for grad_norm, _, mean in updates_of_steps(state, state.config.steps):
            assert grad_norm.hex() == float(np.sqrt(np.sum(mean * mean))).hex()

    @given(**GRAD_NORM_DRAWS)
    @settings(max_examples=40, deadline=None)
    def test_grad_norm_is_within_4_ulp_of_the_full_matrix_sum(self, **draw):
        state = grad_norm_state(**draw)
        for grad_norm, rows, mean in updates_of_steps(state, state.config.steps):
            assert abs(grad_norm - full_matrix_norm(state, rows, mean)) \
                <= 4 * np.finfo(float).eps * grad_norm

    def test_the_canonical_shape_moves_some_bits_within_the_bound(self):
        # P = 500, M = 16, B = 256: numpy's pairwise sum over the whole
        # (P, M) update groups the squares differently from the sum over
        # the moved rows, so some steps differ from the full-matrix norm in
        # the last bit, and none by more than 4 ulp
        pop = beta_population(500, seed=47, alpha=1.0, beta=4.0, unsolvable=0.1)
        state = TrainerState(pop, TrainConfig(steps=30, scheme=Curve(), learning_rate=8.0,
                                              seed=47))
        gaps = [abs(grad_norm - full_matrix_norm(state, rows, mean)) / grad_norm
                for grad_norm, rows, mean in updates_of_steps(state, state.config.steps)]
        assert any(gaps)
        assert max(gaps) <= 4 * np.finfo(float).eps


class TestWeightArgumentModes:
    def test_exact_pass_rate_mode_changes_weights(self):
        # diagnostic mode: weight evaluated at the analytic rate instead of
        # the empirical one; the same batches then carry different weights
        pop = beta_population(20, seed=13)
        weights = {}
        for mode in (False, True):
            cfg = TrainConfig(steps=1, scheme=MaxRL(), batch_size=32, seed=21,
                              weight_at_exact_pass_rate=mode)
            state = TrainerState(pop, cfg)
            exact = np.clip(population_pass_rates(pop.logits, pop.correct), 1e-12, 1.0 - 1e-12)
            train_step(state)
            rec = state.record
            weights[mode] = rec.weights[0]
            # reference: one scalar weight call per active row
            at = exact[rec.prompt_ids[0]] if mode else rec.p_hat[0]
            expected = [float(pointwise_weight(cfg.scheme, r)) if 0.0 < p < 1.0 else 0.0
                        for r, p in zip(at.tolist(), rec.p_hat[0])]
            np.testing.assert_array_equal(rec.weights[0], expected)
        active = weights[False] > 0
        assert active.any()
        assert np.any(weights[False][active] != weights[True][active])

    def test_empirical_weight_bias_matches_the_effective_weight(self):
        # the weight w(p_hat) is correlated with the rewards inside the same
        # estimator. Given c correct rollouts of N, the expected update is
        # w_eff(p) * grad(p) with
        #   w_eff(p) = sum_{c=1}^{N-1} Binom(c; N, p) w(c/N) (c/N)(1 - c/N) / (p(1 - p)),
        # here for w(q) = 1/q; the naive (1 - 1/N) w(p) grad(p) is the negative control
        logits, mask = prompt([1.2, 0.0, -0.5, 0.3], {0})
        n, batches = 8, 50_000
        rng = np.random.default_rng(31)
        probs = softmax(logits)[None, :].repeat(batches, axis=0)
        responses = sample_responses(np.cumsum(probs, axis=1), rng.random((batches, n)))
        rewards = mask[responses]
        counts = rewards.sum(axis=1)
        p_hat = counts / n
        active = (counts > 0) & (counts < n)
        w_hat = np.where(active, 1.0 / np.where(active, p_hat, 1.0), 0.0)
        coeff = w_hat[:, None] * (np.array([0.0, 1.0]) - p_hat[:, None]) / n
        grads = accumulate_gradients(probs, responses, rewards, coeff)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / math.sqrt(batches)
        p = exact_pass_rate(logits, mask)
        grad_p = exact_pass_rate_gradient(logits, mask)
        w_eff = sum(math.comb(n, c) * p**c * (1 - p)**(n - c) * (n / c) * (c / n) * (1 - c / n)
                    for c in range(1, n)) / (p * (1 - p))
        assert np.all(np.abs(mean - w_eff * grad_p) <= 3 * se)
        assert np.all(np.abs(mean - (1 - 1 / n) * (1.0 / p) * grad_p) >= 10 * se)


class BrokenReference:
    """A reference whose density is ``dens`` at every rate."""

    def __init__(self, dens):
        self.dens = dens

    def cdf_at(self, p):
        return np.full(np.shape(p), 0.5)

    def density_at(self, p):
        return np.full(np.shape(p), self.dens)


class TestWeightPath:
    @pytest.mark.parametrize("dens", [-1.0, math.nan, math.inf])
    def test_weight_outside_finite_nonnegative_names_the_step(self, dens):
        pop = beta_population(20, seed=13)
        cfg = TrainConfig(steps=1, scheme=Curve(BrokenReference(dens)), batch_size=32, seed=21)
        state = TrainerState(pop, cfg)
        with pytest.raises(ValueError, match="step 0: weights must be finite and nonnegative"):
            train_step(state)

    def test_weight_is_looked_up_through_the_module_once_per_step(self, monkeypatch):
        # a probe can wrap weighting.grid_weights where the trainer looks it up;
        # each active row's weight is entry c - 1 of its step's one table
        calls = []
        real = weighting.grid_weights

        def spy(scheme, n_rollouts, counts=None):
            table = real(scheme, n_rollouts, counts)
            calls.append((counts.copy(), table))
            return table

        monkeypatch.setattr(weighting, "grid_weights", spy)
        pop = beta_population(20, seed=13)
        cfg = TrainConfig(steps=4, scheme=IntegratedProduct(), batch_size=32, seed=21,
                          min_window_count=0)
        result = run_training(pop, cfg)
        assert len(calls) == cfg.steps
        for (counts, table), window, p_hat, weights in zip(
                calls, windows_read(result), result.p_hat, result.weights):
            np.testing.assert_array_equal(counts, window, strict=True)
            c = np.rint(p_hat * cfg.n_rollouts).astype(np.int64)
            active = (c > 0) & (c < cfg.n_rollouts)
            np.testing.assert_array_equal(weights[active], table[c[active] - 1], strict=True)
            assert not weights[~active].any()

    @pytest.mark.parametrize("scheme", [Curve(), IntegratedProduct()])
    def test_exact_rate_step_counts_every_off_grid_query(self, scheme):
        # the cold start's empty row is read once (F and f together) per
        # active row, repeated prompts included
        pop = beta_population(20, seed=13)
        cfg = TrainConfig(steps=1, scheme=scheme, batch_size=64, seed=21,
                          weight_at_exact_pass_rate=True)
        state = TrainerState(pop, cfg)
        exact = np.clip(population_pass_rates(pop.logits, pop.correct), 1e-12, 1.0 - 1e-12)
        before = offgrid_snap_count()
        train_step(state)
        p_hat, prompt_ids = state.record.p_hat[0], state.record.prompt_ids[0]
        active = (p_hat > 0.0) & (p_hat < 1.0)
        n = cfg.n_rollouts
        off = sum(abs(r * n - round(r * n)) > 1e-9 or not 1 <= round(r * n) <= n - 1
                  for r in exact[prompt_ids[active]].tolist())
        assert off > 0
        assert len(set(prompt_ids[active].tolist())) < active.sum()
        assert offgrid_snap_count() - before == off

    @pytest.mark.parametrize("scheme", [Curve("uniform"), IntegratedProduct("uniform")],
                             ids=["curve", "integrated_product"])
    def test_exact_rate_step_under_pinned_uniform_reads_the_grid(self, scheme):
        # a pinned "uniform" weighs under the grid reference uniform_reference(N),
        # which snaps each exact rate to the grid; the string alone names no
        # reference outside a step, so pointwise_weight without a row raises
        pop = beta_population(20, seed=13)
        cfg = TrainConfig(steps=1, scheme=scheme, batch_size=64, seed=21,
                          weight_at_exact_pass_rate=True)
        exact = np.clip(population_pass_rates(pop.logits, pop.correct), 1e-12, 1.0 - 1e-12)
        state = TrainerState(pop, cfg)
        train_step(state)
        p_hat, prompt_ids = state.record.p_hat[0], state.record.prompt_ids[0]
        active = (p_hat > 0.0) & (p_hat < 1.0)
        at = exact[prompt_ids[active]]
        weights = state.record.weights[0][active]
        grid = replace(scheme, reference=uniform_reference(cfg.n_rollouts))
        np.testing.assert_array_equal(weights.view(np.uint64),
                                      pointwise_weight(grid, at).view(np.uint64))
        with pytest.raises(ValueError, match="'uniform' reference needs a count row"):
            pointwise_weight(scheme, at)


class TestDegenerationEquivalence:
    def test_pinned_uniform_curve_run_identical_to_maxrl_run(self):
        pop = beta_population(40, seed=10, alpha=1.0, beta=3.0)
        results = {}
        for name, scheme in (("curve", Curve(reference="uniform")), ("maxrl", MaxRL())):
            cfg = TrainConfig(steps=20, scheme=scheme, batch_size=32, t0=5, seed=11,
                              learning_rate=4.0)
            results[name] = run_training(pop, cfg)
        np.testing.assert_array_equal(results["curve"].theta, results["maxrl"].theta)
        assert_results_equal(results["curve"], results["maxrl"])

    def test_degeneration_holds_on_non_dyadic_grids(self):
        # k/N is not exactly representable for N = 12, but both paths compute
        # the same correctly-rounded double, so bit equality must survive
        pop = beta_population(30, seed=18, alpha=1.0, beta=3.0)
        results = {}
        for name, scheme in (("curve", Curve(reference="uniform")), ("maxrl", MaxRL())):
            cfg = TrainConfig(steps=12, scheme=scheme, batch_size=24, n_rollouts=12,
                              t0=4, seed=19, learning_rate=4.0)
            results[name] = run_training(pop, cfg)
        np.testing.assert_array_equal(results["curve"].theta, results["maxrl"].theta)
        assert_results_equal(results["curve"], results["maxrl"])


class TestAdaptiveSchemes:
    def test_window_reference_takes_over_after_warmup(self):
        # once the window passes min_window_count, the adaptive weight must
        # actually differ from the uniform fallback (1/p) somewhere
        pop = beta_population(40, seed=14, alpha=1.0, beta=3.0)
        cfg = TrainConfig(steps=10, scheme=Curve(), batch_size=32, t0=5, seed=15,
                          learning_rate=2.0, min_window_count=16)
        state = TrainerState(pop, cfg)
        adaptive_seen = False
        for t in range(cfg.steps):
            train_step(state)
            weights, p_hat = state.record.weights[t], state.record.p_hat[t]
            active = weights > 0
            if np.any(np.abs(weights[active] - 1.0 / p_hat[active]) > 1e-9):
                adaptive_seen = True
        assert adaptive_seen

    def test_integrated_schemes_train_end_to_end(self):
        from curverl.weighting import IntegratedConvex, IntegratedProduct

        pop = beta_population(30, seed=16)
        for scheme in (IntegratedConvex(0.5), IntegratedProduct()):
            cfg = TrainConfig(steps=6, scheme=scheme, batch_size=16, t0=3, seed=17,
                              learning_rate=2.0, min_window_count=8)
            result = run_training(pop, cfg)
            assert len(result.p_hat) == 6
            assert np.all(np.isfinite(result.theta))
            weights = result.weights.ravel()
            active = ((result.p_hat > 0) & (result.p_hat < 1)).ravel()
            assert active.any() and np.all(weights[active] > 0)


def references_built(monkeypatch, scheme, steps=4, min_window_count=0, exact=False):
    """What ``steps`` steps of ``scheme`` build, in call order: the name of
    each reference builder called, and ("table", row) for each weight table,
    row the count row it read as a list (None for no row); and the record."""
    built = []
    for name in ("distribution_from_counts", "uniform_reference"):
        def spy(*args, _name=name, _real=getattr(refdist, name)):
            built.append(_name)
            return _real(*args)
        monkeypatch.setattr(refdist, name, spy)

    def table(scheme, n_rollouts, counts=None, _real=weighting.grid_weights):
        built.append(("table", None if counts is None else counts.tolist()))
        return _real(scheme, n_rollouts, counts)

    monkeypatch.setattr(weighting, "grid_weights", table)
    cfg = TrainConfig(steps=steps, scheme=scheme, batch_size=32, t0=2, seed=21,
                      min_window_count=min_window_count, weight_at_exact_pass_rate=exact)
    state = TrainerState(beta_population(20, seed=13), cfg)
    for _ in range(steps):
        train_step(state)
    return built, state.record


class TestStepReference:
    @pytest.mark.parametrize("scheme", [
        Reinforce(), Grpo(), MaxRL(), EntropicRisk(eta=2.0), Curve(TruncatedExponential(4.0)),
    ], ids=["reinforce", "grpo", "maxrl", "entropic_risk", "curve_fixed"])
    def test_a_step_that_reads_no_window_builds_no_reference(self, monkeypatch, scheme):
        # one table a step, read from no count row
        assert references_built(monkeypatch, scheme)[0] == [("table", None)] * 4

    def test_a_window_step_builds_its_reference(self, monkeypatch):
        # one table a step, read from the window, which is empty at step 0
        built, record = references_built(monkeypatch, Curve())
        assert built == [("table", w.tolist()) for w in windows_read(record)]
        assert built[0] == ("table", [0] * 7)

    def test_a_pinned_uniform_step_builds_one_reference(self, monkeypatch):
        # one table a step, read from no count row: the uniform reference
        assert references_built(monkeypatch, Curve("uniform"))[0] == [("table", None)] * 4

    @pytest.mark.parametrize("scheme", [Curve(), Curve("uniform")], ids=["window", "uniform"])
    def test_an_exact_rate_step_looks_up_its_row_once_and_builds_no_table(self, monkeypatch,
                                                                          scheme):
        # the exact-rate mode snaps a step's active rates once, into the
        # histogram of the step's row, and builds no reference object
        lookups = []

        def spy(p, n_rollouts, _real=refdist.query_indices):
            lookups.append(np.size(p))
            return _real(p, n_rollouts)

        monkeypatch.setattr(refdist, "query_indices", spy)
        built, record = references_built(monkeypatch, scheme, exact=True)
        assert built == []
        assert lookups == ((record.p_hat > 0) & (record.p_hat < 1)).sum(axis=1).tolist()

    @staticmethod
    def cold_start_lines(caplog, scheme, min_window_count):
        caplog.set_level(logging.INFO, logger="curverl.trainer")
        cfg = TrainConfig(steps=6, scheme=scheme, batch_size=16, t0=3, seed=4,
                          min_window_count=min_window_count)
        result = run_training(beta_population(30, seed=5), cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "curverl.trainer"]
        return result, lines

    def test_cold_start_is_logged_once_at_the_first_underfilled_step(self, caplog):
        result, lines = self.cold_start_lines(caplog, Curve(), min_window_count=1000)
        # every step reads an underfilled window, the first an empty one
        assert windows_read(result).sum(axis=1).max() < 1000
        assert lines == ["step 0: window holds 0 < 1000 rates, using the uniform cold-start "
                         "reference"]

    @pytest.mark.parametrize("scheme, min_window_count", [(Curve(), 0), (Reinforce(), 64)],
                             ids=["no_minimum", "reinforce"])
    def test_no_cold_start_is_logged(self, caplog, scheme, min_window_count):
        _, lines = self.cold_start_lines(caplog, scheme, min_window_count)
        assert lines == []


def reference_object_weights(result, rates=None):
    """Each step's weights by the reference-object path: ``pointwise_weight``
    at the active rows' ``rates`` (by default their p-hats), under
    ``distribution_from_counts`` of the window the step read, or of an empty
    row for a cold start or pinned "uniform"."""
    cfg, scheme = result.config, result.config.scheme
    rates = result.p_hat if rates is None else rates
    weights = np.zeros_like(result.weights)
    for t, (window, p_hat, at) in enumerate(zip(windows_read(result), result.p_hat, rates)):
        step_scheme = scheme
        if needs_reference(scheme) and scheme.reference in ("window", "uniform"):
            use = scheme.reference == "window" and window.sum() >= cfg.min_window_count
            row = window if use else np.zeros_like(window)
            step_scheme = replace(scheme, reference=refdist.distribution_from_counts(
                row, int(row.sum())))
        active = (p_hat > 0.0) & (p_hat < 1.0)
        weights[t, active] = pointwise_weight(step_scheme, at[active])
    return weights


# every scheme kind, each string reference and a reference object
STEP_SCHEMES = [
    Reinforce(), Grpo(), MaxRL(), EntropicRisk(eta=2.0), EntropicRisk(eta=40.0),
    Curve(), Curve("uniform"), Curve(TruncatedExponential(4.0)),
    IntegratedConvex(0.4), IntegratedConvex(1.0, "uniform"),
    IntegratedProduct(), IntegratedProduct("uniform"),
]


class TestGridTableSteps:
    @pytest.mark.parametrize("scheme", STEP_SCHEMES, ids=repr)
    def test_weights_equal_the_reference_object_path(self, scheme):
        # min_window_count 40 puts the first steps in the cold start
        cfg = TrainConfig(steps=8, scheme=scheme, batch_size=32, t0=3, seed=9,
                          learning_rate=4.0, min_window_count=40)
        result = run_training(beta_population(30, seed=8, alpha=1.0, beta=2.0), cfg)
        sizes = windows_read(result).sum(axis=1)
        assert (sizes < 40).any() and (sizes >= 40).any()
        assert result.weights.any()
        np.testing.assert_array_equal(result.weights.view(np.uint64),
                                      reference_object_weights(result).view(np.uint64))

    @pytest.mark.parametrize("scheme", STEP_SCHEMES, ids=repr)
    def test_exact_rate_weights_equal_the_reference_object_path(self, scheme):
        # each step weighs its active rows at the exact rates cached before it
        cfg = TrainConfig(steps=8, scheme=scheme, batch_size=32, t0=3, seed=9,
                          learning_rate=4.0, min_window_count=40,
                          weight_at_exact_pass_rate=True)
        state = TrainerState(beta_population(30, seed=8, alpha=1.0, beta=2.0), cfg)
        rates = np.empty_like(state.record.p_hat)
        for t in range(cfg.steps):
            exact = state._exact.copy()
            train_step(state)
            rates[t] = np.clip(exact[state.record.prompt_ids[t]], 1e-12, 1.0 - 1e-12)
        result = state.record
        sizes = windows_read(result).sum(axis=1)
        assert (sizes < 40).any() and (sizes >= 40).any()
        assert result.weights.any()
        np.testing.assert_array_equal(result.weights.view(np.uint64),
                                      reference_object_weights(result, rates).view(np.uint64))


class TestSharedPopulation:
    def test_training_leaves_population_unchanged(self):
        # compare trains every scheme on one population object
        pop = beta_population(30, seed=5, unsolvable=0.2)
        before = [arr.copy() for arr in (pop.logits, pop.correct, pop.base_weights)]
        for scheme, exact in ((Curve(), False), (IntegratedProduct(), True)):
            cfg = TrainConfig(steps=5, scheme=scheme, batch_size=32, t0=2, seed=3,
                              learning_rate=4.0, min_window_count=8,
                              weight_at_exact_pass_rate=exact)
            result = run_training(pop, cfg)
            assert not np.array_equal(result.theta, pop.logits)
            for arr, copy in zip((pop.logits, pop.correct, pop.base_weights), before):
                np.testing.assert_array_equal(arr, copy, strict=True)

    def test_population_arrays_reject_writes(self):
        pop = beta_population(4, seed=5)
        with pytest.raises(ValueError, match="read-only"):
            pop.logits[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            pop.correct[0] = True
        with pytest.raises(ValueError, match="read-only"):
            pop.logits += 1.0


class TestTrainingMovesPassRates:
    def test_reinforce_improves_mean_pass_rate_three_seeds(self):
        for seed in (0, 1, 2):
            pop = beta_population(64, seed=100 + seed)
            cfg = TrainConfig(steps=200, scheme=Reinforce(), batch_size=64, seed=seed,
                              learning_rate=6.0, t0=10)
            result = run_training(pop, cfg)
            final = float(np.dot(pop.base_weights,
                                 population_pass_rates(result.theta, pop.correct)))
            initial = result.mean_exact_pass_rate[0]
            assert final > initial + 0.05


class TestCalibrationInvariance:
    def test_identity_map_gives_zero(self):
        pop = beta_population(20, seed=7, alpha=2.0, beta=3.0)
        ref = TruncatedExponential(4.0)
        assert calibration_invariance_gap(pop, ref, MonotoneMap.identity()) == 0.0

    def test_square_and_sqrt_maps_are_invariant(self):
        # a reference with its mass near 0 and one with its mass near 1
        pop = beta_population(20, seed=7, alpha=2.0, beta=3.0)
        for ref in (TruncatedExponential(4.0), ReflectedTruncatedExponential(4.0)):
            for mono in (MonotoneMap.square(), MonotoneMap.sqrt()):
                assert calibration_invariance_gap(pop, ref, mono) < 1e-8

    def test_pointwise_rule_breaks_invariance(self):
        pop = beta_population(20, seed=7, alpha=2.0, beta=3.0)
        raw, mapped = calibration_gradients(pop, MaxRL(), MaxRL(), MonotoneMap.square())
        disc = float(np.sqrt(((raw - mapped) ** 2).sum()))
        norm = float(np.sqrt((raw ** 2).sum()))
        assert disc > 0.1 * norm
        # square map doubles the 1/p weight, so the discrepancy equals the norm
        assert disc == pytest.approx(norm, rel=1e-12)

    def test_non_monotone_map_rejected(self):
        pop = beta_population(5, seed=7)
        ref = TruncatedExponential(4.0)
        bad = MonotoneMap("hump", lambda t: t * (1 - t), lambda u: u, lambda t: 1 - 2 * t)
        with pytest.raises(ValueError):
            calibration_invariance_gap(pop, ref, bad)

    def test_unsolvable_prompts_rejected(self):
        pop = beta_population(10, seed=7, unsolvable=0.3)
        with pytest.raises(ValueError):
            calibration_invariance_gap(pop, TruncatedExponential(4.0), MonotoneMap.square())


class TestConfigValidation:
    def test_bad_fields_are_named(self):
        with pytest.raises(ValueError, match="t0"):
            TrainConfig(steps=1, scheme=Reinforce(), t0=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(steps=1, scheme=Reinforce(), learning_rate=0.0)
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(steps=0, scheme=Reinforce())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_learning_rate_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match=f"field learning_rate={bad!r}"):
            TrainConfig(steps=1, scheme=Reinforce(), learning_rate=bad)

    def test_round_trip(self):
        cfg = TrainConfig(steps=5, scheme=Curve(), batch_size=2, seed=3)
        assert _parse(TrainConfig, _dump(cfg), "train") == cfg

    def test_unknown_keys_rejected(self):
        cfg = TrainConfig(steps=5, scheme=Reinforce())
        d = _dump(cfg)
        d["typo"] = 1
        with pytest.raises(ValueError, match="typo"):
            _parse(TrainConfig, d, "train")


class TestExactRateCache:
    """The state's softmax and exact pass rates are cached and refreshed
    only for the rows a step updated; they must stay the full
    recomputation's bits."""

    def test_step_recomputes_only_the_batch_rows(self, monkeypatch):
        # the batch reads its rows of the cached softmax, so the step's only
        # softmax and rate sum run over the distinct prompts it updated
        seen = {"softmax": [], "rates": []}

        def counted(name, fn):
            def wrapper(array, *args):
                seen[name].append(array.shape[0])
                return fn(array, *args)
            return wrapper

        monkeypatch.setattr(trainer, "softmax", counted("softmax", softmax))
        monkeypatch.setattr(trainer, "pass_rates_from_probs",
                            counted("rates", pass_rates_from_probs))
        pop = beta_population(200, seed=3)
        cfg = TrainConfig(steps=5, scheme=Reinforce(), batch_size=16, seed=8)
        state = TrainerState(pop, cfg)
        assert seen == {"softmax": [200], "rates": [200]}
        for t in range(cfg.steps):
            seen["softmax"].clear()
            seen["rates"].clear()
            train_step(state)
            distinct = np.unique(state.record.prompt_ids[t]).size
            assert seen == {"softmax": [distinct], "rates": [distinct]}

    @given(
        scheme=st.sampled_from([Reinforce(), Curve(), MaxRL()]),
        size=st.integers(1, 30),
        m=st.sampled_from([2, 3, 4, 5, 8, 16, 17]),
        batch_size=st.integers(1, 64),
        exact=st.booleans(),
        unsolvable=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**16),
    )
    # batches four times the population repeat prompts; a third unsolvable
    @example(scheme=Curve(), size=10, m=16, batch_size=40, exact=False, unsolvable=0.3, seed=2)
    @example(scheme=MaxRL(), size=10, m=5, batch_size=40, exact=True, unsolvable=0.3, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_cache_is_the_full_softmax_after_every_step(self, scheme, size, m, batch_size,
                                                       exact, unsolvable, seed):
        pop = beta_population(size, seed=seed, alpha=1.0, beta=2.0, unsolvable=unsolvable, m=m)
        cfg = TrainConfig(steps=4, scheme=scheme, batch_size=batch_size, n_rollouts=4, t0=2,
                          learning_rate=4.0, seed=seed, min_window_count=8,
                          weight_at_exact_pass_rate=exact)
        state = TrainerState(pop, cfg)
        for _ in range(cfg.steps):
            train_step(state)
            np.testing.assert_array_equal(state.probs.view(np.uint64),
                                          softmax(state.theta).view(np.uint64))
            full = population_pass_rates(state.theta, state.masks)
            np.testing.assert_array_equal(state._exact.view(np.uint64),
                                          full.view(np.uint64))


class TestBatchDraw:
    """TrainerState.draw_batch searches a CDF built once per run; it must be
    Generator.choice(P, B, p=base_weights) in values, dtype and the state it
    leaves the generator in."""

    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
        zeros_before=st.integers(0, 3),
        zeros_after=st.integers(0, 3),
        batch_size=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(weights=[1.0], zeros_before=0, zeros_after=0, batch_size=5, seed=0)
    @example(weights=[0.5, 0.5], zeros_before=2, zeros_after=3, batch_size=64, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_equals_generator_choice(self, weights, zeros_before, zeros_after, batch_size, seed):
        w = np.array([0.0] * zeros_before + weights + [0.0] * zeros_after)
        assume(w.sum() > 0.0)
        w /= w.sum()
        pop = PromptPopulation(np.zeros((w.size, 2)), np.zeros((w.size, 2), dtype=bool),
                               base_weights=w)
        state = TrainerState(pop, TrainConfig(steps=1, scheme=Reinforce(), batch_size=batch_size))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = state.draw_batch(got_rng)
        want = want_rng.choice(w.size, size=batch_size, p=pop.base_weights)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBatchGradientSum:
    """train_step sums the batch gradient per distinct prompt with the bits
    of np.add.at into zeros, in order of occurrence."""

    @staticmethod
    def add_at_into_zeros(batch, grads):
        rows, inverse = np.unique(batch, return_inverse=True)
        total = np.zeros((rows.size, grads.shape[1]))
        np.add.at(total, inverse, grads)
        return rows, total

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_add_at_into_zeros_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        p, b, m = int(rng.integers(1, 40)), int(rng.integers(1, 80)), int(rng.integers(1, 9))
        batch = rng.integers(0, p, size=b)
        grads = rng.standard_normal((b, m)) * 10.0 ** rng.integers(-300, 300, size=(b, m))
        # signed zeros and NaNs at first occurrences and at repeats alike
        grads[rng.random((b, m)) < 0.2] = -0.0
        grads[rng.random((b, m)) < 0.05] = 0.0
        grads[rng.random((b, m)) < 0.05] = np.nan
        rows, total = _sum_by_prompt(batch, grads)
        want_rows, want = self.add_at_into_zeros(batch, grads)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(total.view(np.uint64), want.view(np.uint64))

    def test_negative_zeros_sum_to_positive_zero(self):
        # 0.0 + (-0.0) is +0.0, so no sum from zeros ends at -0.0, once or repeated
        batch = np.array([3, 1, 3])
        grads = np.array([[-0.0, 1.0], [-0.0, -0.0], [-0.0, 2.0]])
        rows, total = _sum_by_prompt(batch, grads)
        np.testing.assert_array_equal(rows, [1, 3])
        assert not np.signbit(total).any()
        _, want = self.add_at_into_zeros(batch, grads)
        np.testing.assert_array_equal(total.view(np.uint64), want.view(np.uint64))


class TestCoefficientTable:
    """train_step passes the kernel a (B, 2) coefficient per reward value;
    the entry a rollout selects has the bits of its own per-rollout
    coefficient w * (r - p_hat) / N."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_selected_entry_equals_per_rollout_expression_bitwise(self, n):
        rng = np.random.default_rng(n)
        rewards = rng.random((200, n)) < rng.random((200, 1))
        p_hat = rewards.sum(axis=1) / n
        weights = rng.standard_normal(200) * 10.0 ** rng.integers(-5, 5, size=200)
        weights[::7] = 0.0
        table = weights[:, None] * (np.array([0.0, 1.0]) - p_hat[:, None]) / n
        per_rollout = weights[:, None] * (rewards.astype(np.float64) - p_hat[:, None]) / n
        selected = np.take_along_axis(table, rewards.astype(np.intp), axis=1)
        np.testing.assert_array_equal(selected.view(np.uint64), per_rollout.view(np.uint64))


class TestArtifactMemory:
    def test_per_prompt_csv_is_written_in_row_blocks(self, tmp_path):
        # the canonical shape, B = 256 over 300 steps: 76,800 per_prompt.csv
        # rows, whose text (3.8 MB) joined at once would peak near 18 MB
        import tracemalloc

        from curverl.trainer import write_training_artifacts

        batch, steps, n = 256, 300, 8
        rng = np.random.default_rng(3)
        p_hat = rng.integers(0, n + 1, size=(steps, batch)) / n
        weights = np.where((p_hat > 0) & (p_hat < 1), 1.0 / np.maximum(p_hat, 1 / n), 0.0)
        cfg = TrainConfig(steps=steps, scheme=Curve(), batch_size=batch, n_rollouts=n,
                          log_per_prompt=True)
        result = TrainResult(
            config=cfg, theta=np.zeros((1, 2)),
            prompt_ids=rng.integers(0, 500, size=(steps, batch)), p_hat=p_hat, weights=weights,
            prompt_grad_norms=rng.random((steps, batch)) * (weights > 0),
            mean_exact_pass_rate=np.full(steps, 0.5), active_fraction=np.full(steps, 0.75),
            z_theta=np.full(steps, 1.5), grad_norm=np.full(steps, 0.25),
            step_counts=np.zeros((steps, n - 1), np.int64),
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            write_training_artifacts(result, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(tmp_path / "per_prompt.csv") as fh:
            assert sum(1 for _ in fh) == batch * steps + 1
        assert peak <= 10 * 2**20


class TestStepMemory:
    def test_a_step_allocates_nothing_of_the_population_shape(self):
        # one (P, M) float64 array is 2 MiB here, while a step's (B, M)
        # arrays are about 8 KiB; the norm sums only the moved rows
        import tracemalloc

        size, m = 4000, 64
        pop = beta_population(size, seed=6, m=m)
        cfg = TrainConfig(steps=4, scheme=Reinforce(), batch_size=16, n_rollouts=8, seed=2)
        state = TrainerState(pop, cfg)
        train_step(state)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(cfg.steps - 1):
                tracemalloc.reset_peak()
                train_step(state)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < size * m * 8 / 2


class TestRunMemory:
    def test_per_row_logs_are_rows_of_one_block_per_field(self):
        # a run is its steps, each writing its row of the record made with
        # the state
        pop = beta_population(40, seed=6)
        cfg = TrainConfig(steps=5, scheme=Curve(), batch_size=16, t0=2, seed=3,
                          min_window_count=8)
        result = run_training(pop, cfg)
        state = TrainerState(pop, cfg)
        for _ in range(cfg.steps):
            train_step(state)
        assert_results_equal(result, state.record)
