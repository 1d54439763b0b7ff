"""Sliding count window, histogram reference estimation, Wasserstein distance."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curverl.ioutil import write_csv
from curverl.passrate import (
    DifficultyProfile,
    PromptPopulation,
    make_population,
    population_pass_rates,
)
from curverl.refdist import (
    ColdStartError,
    ReferenceDistribution,
    distribution_from_counts,
    distribution_from_rates,
    exact_policy_distribution,
    load_reference_csv,
    offgrid_snap_count,
    reference_csv_columns,
    uniform_reference,
    wasserstein1,
    REFERENCE_CSV_HEADER,
    _grid_indices,
)
from curverl.trainer import TrainConfig, TrainerState, train_step, window_reference
from curverl.weighting import Reinforce


def random_reference(rng, n=8):
    grid = np.arange(1, n) / n
    rates = rng.choice(grid, size=int(rng.integers(3, 40)))
    return distribution_from_rates(rates, n)


def assert_references_bitwise_equal(a, b):
    """Every field of two references, arrays and floors, has the same bits."""
    for f in fields(ReferenceDistribution):
        x, y = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


def window_run(t0, steps, population=None, seed=3):
    """The trainer state and run record of a short Reinforce run (N = 8)."""
    if population is None:
        population = make_population(
            20, m=8, seed=seed,
            profile=DifficultyProfile(kind="beta", unsolvable_fraction=0.3))
    state = TrainerState(population, TrainConfig(steps=steps, scheme=Reinforce(),
                                                 batch_size=16, t0=t0, seed=seed))
    for _ in range(steps):
        train_step(state)
    return state, state.record


def step_counts(p_hat, n=8):
    """One step's active prompts counted by c = N * p_hat, entry c - 1."""
    c = np.rint(p_hat * n).astype(np.int64)
    return np.bincount(c[(c > 0) & (c < n)] - 1, minlength=n - 1)


class TestSlidingWindow:
    """The trainer's window: one row of counts per step, over the last t0 steps."""

    def test_full_eviction_at_t0_one(self):
        state, rec = window_run(t0=1, steps=4)
        assert state.window.shape == (1, 7)
        np.testing.assert_array_equal(state.window[0], step_counts(rec.p_hat[-1]))
        assert rec.window_counts.sum(axis=1).tolist() == [step_counts(p).sum() for p in rec.p_hat]

    def test_degenerate_rates_are_dropped(self):
        # every prompt is all-correct or all-wrong, so every p_hat is 0 or 1
        solved = np.zeros((6, 4), dtype=bool)
        solved[::2] = True
        pop = PromptPopulation(np.zeros((6, 4)), solved)
        state, rec = window_run(t0=4, steps=3, population=pop)
        assert set(rec.p_hat.ravel().tolist()) == {0.0, 1.0}
        assert not state.window.any()
        assert all(rec.window_counts.sum(axis=1) == 0)

    def test_eviction_keeps_exactly_last_t0_steps(self):
        state, rec = window_run(t0=3, steps=10)
        # steps 7, 8, 9 remain, in rows 7 % 3, 8 % 3 and 9 % 3
        for step in (7, 8, 9):
            np.testing.assert_array_equal(state.window[step % 3], step_counts(rec.p_hat[step]))
        assert rec.window_counts[-1].sum() == sum(step_counts(rec.p_hat[s]).sum()
                                                  for s in (7, 8, 9))

    def test_identical_runs_identical_contents(self):
        (a, _), (b, _) = window_run(t0=2, steps=6), window_run(t0=2, steps=6)
        assert a.window.dtype == b.window.dtype == np.int64
        assert a.window.tobytes() == b.window.tobytes()

    def test_t0_must_be_positive(self):
        with pytest.raises(ValueError, match="t0=0"):
            TrainConfig(steps=1, scheme=Reinforce(), t0=0)


@st.composite
def grid_counts(draw):
    """N from the trainer's usual grids and a count at each interior point."""
    n = draw(st.sampled_from([2, 3, 5, 8, 16, 64]))
    return np.array(draw(st.lists(st.integers(0, 40), min_size=n - 1, max_size=n - 1)),
                    dtype=np.int64), n


class TestEstimate:
    def test_single_rate(self):
        ref = distribution_from_counts(np.array([0, 0, 0, 1, 0, 0, 0]), 1)
        assert ref.bin_mass[3] == 1.0  # grid point 4/8
        assert ref.cdf_at(0.5) == 1.0
        assert ref.density_at(0.5) == 8.0

    def test_uniform_window(self):
        ref = distribution_from_counts(np.ones(7, dtype=np.int64), 7)
        for k in range(1, 8):
            assert ref.cdf[k - 1] == pytest.approx(k / 7, abs=1e-12)

    def test_empty_window_signals_cold_start(self):
        with pytest.raises(ColdStartError):
            distribution_from_counts(np.zeros(7, dtype=np.int64), 0)
        with pytest.raises(ColdStartError):
            distribution_from_rates([], 8)

    def test_invariants_after_estimate(self):
        # off-grid rates snap into counts first
        rng = np.random.default_rng(3)
        for _ in range(25):
            ref = distribution_from_rates(rng.uniform(0.01, 0.99, size=int(rng.integers(1, 100))),
                                          8)
            assert np.all(np.diff(ref.cdf) >= -1e-15)
            assert ref.cdf[-1] == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(ref.density, ref.bin_mass * 8, atol=1e-12)
            floored = ref.floored_cdf()
            assert np.all(floored >= ref.cdf_floor)
            assert np.all(ref.floored_density() >= ref.density_floor)

    def test_cdf_never_rounds_above_one_before_empty_top_bins(self):
        # these masses sum to 1 + 1 ulp, so a plain cumsum reads above 1 at
        # the last occupied bin and then drops to the pinned terminal 1
        counts = np.array([17, 9, 15, 9, 14, 5, 6, 3, 0, 0])
        assert np.cumsum(counts / counts.sum())[7] > 1.0
        cdf = distribution_from_counts(counts, int(counts.sum())).cdf
        assert np.all(cdf <= 1.0) and np.all(np.diff(cdf) >= 0.0)
        np.testing.assert_array_equal(cdf[7:], 1.0)

    @given(grid_counts())
    @example((np.zeros(1, dtype=np.int64), 2))
    @example((np.zeros(63, dtype=np.int64), 64))
    @settings(max_examples=200, deadline=None)
    def test_counts_equal_their_rates_bitwise(self, case):
        counts, n = case
        rates = np.repeat(np.arange(1, n) / n, counts)
        if not counts.any():
            with pytest.raises(ColdStartError):
                distribution_from_counts(counts, 0)
            with pytest.raises(ColdStartError):
                distribution_from_rates(rates, n)
            return
        assert_references_bitwise_equal(distribution_from_counts(counts, int(counts.sum())),
                                        distribution_from_rates(rates, n))


@st.composite
def rates_and_grid(draw):
    """N in 2..64 with rates in [0, 1], half of them exact half-grid ties."""
    n = draw(st.integers(2, 64))
    tie = st.integers(0, n - 1).map(lambda k: (k + 0.5) / n)
    rates = draw(st.lists(st.one_of(st.floats(0.0, 1.0), tie), min_size=1, max_size=40))
    return rates, n


def round_snap(rate: float, n: int) -> tuple[int, bool]:
    """Scalar reference of the snap rule: Python's round (half to even),
    clamped to [1, N - 1], and whether the rate was off the interior grid."""
    k = round(rate * n)
    return min(max(k, 1), n - 1), abs(rate * n - k) > 1e-9 or not 1 <= k <= n - 1


class TestGridSnap:
    @given(rates_and_grid())
    @settings(max_examples=300, deadline=None)
    def test_grid_indices_and_lookups_match_round(self, case):
        rates, n = case
        expected = [round_snap(r, n) for r in rates]
        assert _grid_indices(np.array(rates), n).tolist() == [k for k, _ in expected]
        ref = uniform_reference(n)
        before = offgrid_snap_count()
        got = ref.cdf_at(np.array(rates))
        assert got.tolist() == [ref.cdf[k - 1] for k, _ in expected]
        assert offgrid_snap_count() - before == sum(off for _, off in expected)

    def test_every_half_grid_tie(self):
        for n in range(2, 65):
            ties = ((np.arange(n) + 0.5) / n).tolist()
            assert _grid_indices(np.array(ties), n).tolist() == [round_snap(r, n)[0] for r in ties]

    def test_ties_round_half_to_even_then_clamp(self):
        ties = (np.arange(8) + 0.5) / 8  # exact in binary
        assert _grid_indices(ties, 8).tolist() == [1, 2, 2, 4, 4, 6, 6, 7]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValueError):
            distribution_from_rates([bad], 8)


class TestAccessors:
    def test_uniform_reference_cdf_is_identity_on_grid(self):
        ref = uniform_reference(8)
        assert ref.cdf_at(0.25) == 0.25
        assert ref.density_at(0.25) == 1.0

    def test_far_bin_query_hits_floor(self):
        ref = distribution_from_rates([7 / 8], 8)
        assert ref.cdf_at(1 / 8) == ref.cdf_floor == 1.0 / 2.0
        assert ref.density_at(1 / 8) == ref.density_floor

    def test_top_grid_point_has_full_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ref = random_reference(rng)
            assert ref.cdf_at(7 / 8) == 1.0

    def test_off_grid_queries_snap_and_count(self):
        ref = uniform_reference(8)
        before = offgrid_snap_count()
        assert ref.cdf_at(0.26) == 0.25  # snaps to 2/8
        assert offgrid_snap_count() == before + 1
        # an array is one lookup of every rate in it; 0 and 1 clamp into the grid
        got = ref.density_at(np.array([0.26, 0.25, 0.0, 1.0]))
        assert got.tolist() == [1.0] * 4
        assert ref.raw_cdf_at(np.array([0.0, 1.0])).tolist() == [0.125, 0.875]
        assert offgrid_snap_count() == before + 1 + 3 + 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_queries_rejected(self, bad):
        ref = uniform_reference(8)
        for lookup in (ref.cdf_at, ref.density_at, ref.raw_cdf_at):
            with pytest.raises(ValueError, match="finite"):
                lookup(np.array([0.5, bad]))

    def test_floors_shrink_with_sample_count(self):
        small = distribution_from_rates([0.5] * 3, 8)
        large = distribution_from_rates([0.5] * 300, 8)
        assert large.cdf_floor < small.cdf_floor
        assert large.density_floor < small.density_floor


class TestExactPolicyDistribution:
    def test_identical_prompts_concentrate(self):
        pop = make_population(5, m=8, seed=0,
                              profile=DifficultyProfile(kind="fixed", targets=(0.5,)))
        ref = exact_policy_distribution(pop, 8)
        assert ref.bin_mass[3] == pytest.approx(1.0, abs=1e-12)

    def test_two_prompt_split(self):
        pop = make_population(2, m=8, seed=1,
                              profile=DifficultyProfile(kind="fixed", targets=(0.25, 0.75)))
        ref = exact_policy_distribution(pop, 8)
        assert ref.bin_mass[1] == pytest.approx(0.5, abs=1e-12)  # 2/8
        assert ref.bin_mass[5] == pytest.approx(0.5, abs=1e-12)  # 6/8

    def test_estimate_converges_to_exact_distribution(self):
        # Monte Carlo oracle: histogram the exact pass rates of prompts
        # sampled from d0 and compare it against the analytic pushforward.
        pop = make_population(
            60, m=16, seed=9, profile=DifficultyProfile(kind="beta", alpha=2.0, beta=2.0)
        )
        exact = exact_policy_distribution(pop, 8)
        rates = population_pass_rates(pop.logits, pop.correct)
        rng = np.random.default_rng(17)
        picks = rng.choice(len(pop), size=10_000, p=pop.base_weights)
        est = distribution_from_rates(rates[picks], 8)
        tv = 0.5 * np.abs(est.bin_mass - exact.bin_mass).sum()
        assert tv < 0.05

    def test_estimate_w1_consistency_three_seeds(self):
        pop = make_population(
            40, m=16, seed=2, profile=DifficultyProfile(kind="beta", alpha=2.0, beta=3.0)
        )
        exact = exact_policy_distribution(pop, 8)
        rates = population_pass_rates(pop.logits, pop.correct)
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(pop), size=2000, p=pop.base_weights)
            assert wasserstein1(distribution_from_rates(rates[picks], 8), exact) < 0.05


class TestWasserstein:
    def test_identity(self):
        ref = distribution_from_rates([0.25, 0.5], 8)
        assert wasserstein1(ref, ref) == 0.0

    def test_point_masses(self):
        a = distribution_from_rates([2 / 8], 8)
        b = distribution_from_rates([6 / 8], 8)
        assert wasserstein1(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = random_reference(rng), random_reference(rng)
            assert wasserstein1(a, b) == wasserstein1(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b, c = (random_reference(rng) for _ in range(3))
            assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-12

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b = random_reference(rng), random_reference(rng)
            if wasserstein1(a, b) == 0.0:
                np.testing.assert_array_equal(a.cdf, b.cdf)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wasserstein1(distribution_from_rates([0.5], 8), distribution_from_rates([0.5], 16))


class TestCsvSnapshot:
    def test_round_trip_preserves_floored_values(self, tmp_path):
        ref = distribution_from_rates([1 / 8, 1 / 8, 3 / 8, 7 / 8], 8)
        path = tmp_path / "refdist.csv"
        write_csv(path, REFERENCE_CSV_HEADER,
                  reference_csv_columns([3], [[2, 0, 1, 0, 0, 0, 1]]))
        loaded = load_reference_csv(path)
        assert loaded.n_rollouts == 8
        for p in loaded.grid:
            assert loaded.cdf_at(float(p)) == ref.cdf_at(float(p))
            assert loaded.density_at(float(p)) == ref.density_at(float(p))

    def test_last_step_block_wins(self, tmp_path):
        late = distribution_from_rates([5 / 8], 8)
        path = tmp_path / "refdist.csv"
        write_csv(path, REFERENCE_CSV_HEADER,
                  reference_csv_columns([0, 1], [[1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0]]))
        loaded = load_reference_csv(path)
        assert loaded.density_at(5 / 8) == late.density_at(5 / 8)

    @pytest.mark.parametrize("n", [2, 3, 8, 11, 64])
    def test_columns_from_counts_equal_window_references_bitwise(self, n):
        rng = np.random.default_rng(n)
        counts = rng.integers(0, 40, size=(30, n - 1), dtype=np.int64)
        counts[rng.random(30) < 0.3] = 0  # empty windows: the uniform reference
        counts[0] = 0
        if n == 11:
            # these masses cumsum past 1 before the empty top bins
            counts[1] = [17, 9, 15, 9, 14, 5, 6, 3, 0, 0]
            assert np.cumsum(counts[1] / counts[1].sum())[7] > 1.0
        steps = 5 + 3 * np.arange(len(counts))
        refs = [window_reference(row) for row in counts]
        expected = (
            np.repeat(steps, n - 1),
            np.concatenate([ref.grid for ref in refs]),
            np.concatenate([ref.bin_mass for ref in refs]),
            np.concatenate([ref.floored_cdf() for ref in refs]),
            np.concatenate([ref.floored_density() for ref in refs]),
        )
        got = reference_csv_columns(steps, counts)
        assert len(got) == len(REFERENCE_CSV_HEADER)
        for name, x, y in zip(REFERENCE_CSV_HEADER, got, expected):
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError) as err:
            load_reference_csv(path)
        assert str(err.value).startswith(f"{path}: unexpected reference CSV header")


class TestValidation:
    def test_reference_needs_consistent_lengths(self):
        with pytest.raises(ValueError):
            ReferenceDistribution(
                n_rollouts=8,
                bin_mass=np.ones(3) / 3,
                cdf=np.ones(7),
                density=np.ones(7),
                sample_count=1,
                cdf_floor=0.1,
                density_floor=0.1,
            )

    def test_cdf_must_be_monotone(self):
        with pytest.raises(ValueError):
            ReferenceDistribution(
                n_rollouts=8,
                bin_mass=np.full(7, 1 / 7),
                cdf=np.array([0.5, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0]),
                density=np.full(7, 8 / 7),
                sample_count=1,
                cdf_floor=0.1,
                density_floor=0.1,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    @pytest.mark.parametrize("name", ["bin_mass", "cdf", "density"])
    def test_non_finite_or_negative_cells_name_the_array(self, name, bad):
        arrays = dict(bin_mass=np.full(7, 1 / 8), cdf=np.arange(1, 8) / 8, density=np.ones(7))
        arrays[name][0] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative$"):
            ReferenceDistribution(n_rollouts=8, sample_count=1, cdf_floor=0.1,
                                  density_floor=0.1, **arrays)
