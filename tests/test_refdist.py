"""Sliding window, histogram reference estimation, Wasserstein distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curverl.ioutil import write_csv
from curverl.passrate import DifficultyProfile, make_population, population_pass_rates
from curverl.refdist import (
    ColdStartError,
    ReferenceDistribution,
    SlidingWindow,
    distribution_from_rates,
    estimate,
    exact_policy_distribution,
    load_reference_csv,
    offgrid_snap_count,
    reference_csv_columns,
    uniform_reference,
    wasserstein1,
    REFERENCE_CSV_HEADER,
    _grid_indices,
)


def random_reference(rng, n=8):
    grid = np.arange(1, n) / n
    rates = rng.choice(grid, size=int(rng.integers(3, 40)))
    return distribution_from_rates(rates, n)


class TestSlidingWindow:
    def test_full_eviction_at_t0_one(self):
        w = SlidingWindow(t0=1)
        w.push(0, [0.25, 0.5, 0.75])
        assert len(w) == 3
        w.push(1, [0.125])
        assert len(w) == 1
        assert w.rates().tolist() == [0.125]

    def test_degenerate_rates_are_dropped(self):
        w = SlidingWindow(t0=4)
        w.push(0, [0.0, 0.5, 1.0])
        assert len(w) == 1
        assert w.rates().tolist() == [0.5]

    def test_eviction_keeps_exactly_last_t0_steps(self):
        w = SlidingWindow(t0=3)
        for step in range(10):
            w.push(step, [0.5, 0.25])
        # steps 7, 8, 9 remain
        assert len(w) == 6
        assert {s for s, _ in w.entries} == {7, 8, 9}

    def test_capacity_bound_holds(self):
        batch = 5
        w = SlidingWindow(t0=4)
        rng = np.random.default_rng(0)
        for step in range(50):
            w.push(step, rng.uniform(0.01, 0.99, size=batch))
            assert len(w) <= 4 * batch

    def test_identical_runs_identical_contents(self):
        def run():
            w = SlidingWindow(t0=2)
            rng = np.random.default_rng(11)
            for step in range(6):
                w.push(step, rng.uniform(0, 1, size=4))
            return w.rates(), [step for step, _ in w.entries]

        (rates_a, steps_a), (rates_b, steps_b) = run(), run()
        np.testing.assert_array_equal(rates_a, rates_b, strict=True)
        assert steps_a == steps_b

    def test_steps_must_not_regress(self):
        w = SlidingWindow(t0=2)
        w.push(5, [0.5])
        with pytest.raises(ValueError):
            w.push(4, [0.5])

    def test_t0_must_be_positive(self):
        with pytest.raises(ValueError):
            SlidingWindow(t0=0)


class TestEstimate:
    def test_single_rate(self):
        w = SlidingWindow(t0=1)
        w.push(0, [0.5])
        ref = estimate(w, 8)
        assert ref.bin_mass[3] == 1.0  # grid point 4/8
        assert ref.cdf_at(0.5) == 1.0
        assert ref.density_at(0.5) == 8.0

    def test_uniform_window(self):
        w = SlidingWindow(t0=1)
        w.push(0, np.arange(1, 8) / 8)
        ref = estimate(w, 8)
        for k in range(1, 8):
            assert ref.cdf[k - 1] == pytest.approx(k / 7, abs=1e-12)

    def test_empty_window_signals_cold_start(self):
        with pytest.raises(ColdStartError):
            estimate(SlidingWindow(t0=1), 8)

    def test_invariants_after_estimate(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = SlidingWindow(t0=10)
            w.push(0, rng.uniform(0.01, 0.99, size=int(rng.integers(1, 100))))
            ref = estimate(w, 8)
            assert np.all(np.diff(ref.cdf) >= -1e-15)
            assert ref.cdf[-1] == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(ref.density, ref.bin_mass * 8, atol=1e-12)
            floored = ref.floored_cdf()
            assert np.all(floored >= ref.cdf_floor)
            assert np.all(ref.floored_density() >= ref.density_floor)

    def test_cdf_never_rounds_above_one_before_empty_top_bins(self):
        # these masses sum to 1 + 1 ulp, so a plain cumsum reads above 1 at
        # the last occupied bin and then drops to the pinned terminal 1
        counts = [17, 9, 15, 9, 14, 5, 6, 3, 0, 0]
        rates = np.repeat(np.arange(1, 11) / 11, counts)
        assert np.cumsum(np.asarray(counts) / sum(counts))[7] > 1.0
        cdf = distribution_from_rates(rates, 11).cdf
        assert np.all(cdf <= 1.0) and np.all(np.diff(cdf) >= 0.0)
        np.testing.assert_array_equal(cdf[7:], 1.0)


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
        # Monte Carlo oracle: push the exact pass rates of prompts sampled
        # from d0 and compare the histogram against the analytic pushforward.
        pop = make_population(
            60, m=16, seed=9, profile=DifficultyProfile(kind="beta", alpha=2.0, beta=2.0)
        )
        exact = exact_policy_distribution(pop, 8)
        rates = population_pass_rates(pop.logits, pop.correct)
        rng = np.random.default_rng(17)
        w = SlidingWindow(t0=1)
        picks = rng.choice(len(pop), size=10_000, p=pop.base_weights)
        w.push(0, rates[picks])
        est = estimate(w, 8)
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
            w = SlidingWindow(t0=1)
            picks = rng.choice(len(pop), size=2000, p=pop.base_weights)
            w.push(0, rates[picks])
            assert wasserstein1(estimate(w, 8), exact) < 0.05


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
        write_csv(path, REFERENCE_CSV_HEADER, reference_csv_columns([3], [ref]))
        loaded = load_reference_csv(path)
        assert loaded.n_rollouts == 8
        for p in loaded.grid:
            assert loaded.cdf_at(float(p)) == ref.cdf_at(float(p))
            assert loaded.density_at(float(p)) == ref.density_at(float(p))

    def test_last_step_block_wins(self, tmp_path):
        early = distribution_from_rates([1 / 8], 8)
        late = distribution_from_rates([5 / 8], 8)
        path = tmp_path / "refdist.csv"
        write_csv(path, REFERENCE_CSV_HEADER, reference_csv_columns([0, 1], [early, late]))
        loaded = load_reference_csv(path)
        assert loaded.density_at(5 / 8) == late.density_at(5 / 8)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            load_reference_csv(path)


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
