"""Weight schemes, induced priors, the utility-gap bound, weight tables, quadrature."""

import math
import operator
from dataclasses import replace
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curverl import refdist
from curverl.verify import GAP_BOUND_TOL, PROP2_UTILITIES
from curverl.config import ConfigError, _dump, parse_scheme
from curverl.quadrature import DivergentIntegralError, tail_integral
from curverl.references import (
    ContinuousUniform,
    ReflectedTruncatedExponential,
    TruncatedExponential,
)
from curverl.weighting import (
    SCHEMES,
    Curve,
    EntropicRisk,
    Grpo,
    IntegratedConvex,
    IntegratedProduct,
    MaxRL,
    Reinforce,
    grid_weights,
    induced_prior,
    induced_prior_numeric,
    needs_reference,
    pointwise_weight,
    reverse_hazard_identity_check,
    scheme_name,
    utility_gap_bound_check,
    weight_table,
)

GRID_19 = np.arange(1, 20) * 0.05


class TestPointwiseWeights:
    def test_reinforce_is_constant(self):
        assert pointwise_weight(Reinforce(), 0.123) == 1.0

    def test_grpo_at_half(self):
        assert pointwise_weight(Grpo(), 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_maxrl_at_quarter(self):
        assert pointwise_weight(MaxRL(), 0.25) == pytest.approx(4.0, abs=1e-15)

    def test_entropic_small_eta_limit(self):
        assert abs(pointwise_weight(EntropicRisk(1e-4), 0.3) - 1.0) < 1e-4

    def test_entropic_large_eta_limit(self):
        w = pointwise_weight(EntropicRisk(50.0), 0.5)
        assert abs(50.0 * w - 2.0) < 1e-3

    def test_entropic_survives_extreme_eta(self):
        # beyond exp's range the weight must reduce to 1/(eta p), not overflow
        w = pointwise_weight(EntropicRisk(5000.0), 0.25)
        assert w == pytest.approx(1.0 / (5000.0 * 0.25), rel=1e-12)

    def test_curve_with_uniform_reference_matches_inverse_rate(self):
        assert pointwise_weight(Curve(reference=ContinuousUniform()), 0.2) == pytest.approx(
            5.0, abs=1e-12
        )
        # no reference at all falls back to the uniform cold start
        assert pointwise_weight(Curve(), 0.2) == pytest.approx(5.0, abs=1e-12)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                pointwise_weight(MaxRL(), p)

    def test_integrated_convex_interpolates(self):
        ref = TruncatedExponential(4.0)
        p = 0.3
        hazard = ref.density_at(p) / ref.cdf_at(p)
        lam = 0.25
        expected = (1 - lam) / p + lam * hazard
        assert pointwise_weight(IntegratedConvex(lam, ref), p) == pytest.approx(expected, rel=1e-15)
        assert pointwise_weight(IntegratedConvex(0.0, ref), p) == pytest.approx(1 / p, rel=1e-15)
        assert pointwise_weight(IntegratedConvex(1.0, ref), p) == pytest.approx(hazard, rel=1e-15)

    def test_integrated_product_formula_and_positivity(self):
        for ref in (ContinuousUniform(), TruncatedExponential(4.0),
                    ReflectedTruncatedExponential(4.0)):
            for p in GRID_19:
                cdf, dens = ref.cdf_at(p), ref.density_at(p)
                expected = -(math.log(cdf) / p + dens * math.log(p) / cdf)
                got = pointwise_weight(IntegratedProduct(ref), float(p))
                assert got == pytest.approx(expected, rel=1e-14)
                assert got > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EntropicRisk(0.0)
        with pytest.raises(ValueError):
            IntegratedConvex(1.5)

    def test_entropic_rejects_infinite_eta(self):
        # at eta = inf every weight would be 0.0
        with pytest.raises(ValueError, match="eta must be finite"):
            EntropicRisk(math.inf)

    @pytest.mark.parametrize("scheme", [Curve, IntegratedProduct,
                                        lambda ref: IntegratedConvex(0.5, ref)])
    def test_reference_is_window_uniform_or_a_distribution(self, scheme):
        for ref in ("window", "uniform", ContinuousUniform()):
            scheme(ref)
        for ref in ("bogus", None, 5):
            with pytest.raises(ValueError, match="reference must be"):
                scheme(ref)

    def test_entropic_strictly_decreasing(self):
        grid = np.arange(1, 10) * 0.1
        for eta in (0.5, 2.0, 10.0):
            values = [pointwise_weight(EntropicRisk(eta), float(p)) for p in grid]
            assert all(a > b for a, b in zip(values, values[1:]))


def oracle_weight(scheme, p: float, cdf: float, dens: float) -> float:
    """One rate's weight from its scheme's formula in scalar ``math``, given
    the reference's F and f at that rate."""
    name = scheme_name(scheme)
    if name == "reinforce":
        return 1.0
    if name == "grpo":
        return 1.0 / math.sqrt(p * (1.0 - p))
    if name == "maxrl":
        return 1.0 / p
    if name == "entropic_risk":
        if scheme.eta > 30.0:
            return 1.0 / (scheme.eta * (p + math.exp(-scheme.eta)))
        a = math.expm1(scheme.eta)
        return a / (scheme.eta * (1.0 + a * p))
    if name == "curve":
        return dens / cdf
    if name == "integrated_convex":
        return (1.0 - scheme.lam) / p + scheme.lam * (dens / cdf)
    if name == "integrated_product":
        return -(math.log(cdf) / p + dens * math.log(p) / cdf)
    raise AssertionError(f"no scalar oracle for scheme {name!r}")


def oracle_schemes(name, ref):
    """Instances of scheme ``name`` over its parameter range, reading ``ref``."""
    cls = SCHEMES[name]
    if name == "entropic_risk":  # both branches of the formula
        return [cls(1e-4), cls(2.0), cls(30.0), cls(50.0), cls(5000.0)]
    if name == "integrated_convex":
        return [cls(lam, ref) for lam in (0.0, 0.25, 1.0)]
    if needs_reference(cls()):
        return [cls(ref)]
    return [cls()]


# 10^4 rates off every grid, and the exact-rate mode's clamp ends
OFF_GRID = np.concatenate([
    np.random.default_rng(2024).uniform(1e-12, 1.0 - 1e-12, 10_000), [1e-12, 1.0 - 1e-12],
])


def oracle_references(n):
    window = refdist.distribution_from_rates(
        np.random.default_rng(n).choice(np.arange(1, n) / n, size=50), n)
    return {"window_histogram": window, "uniform": refdist.uniform_reference(n),
            "truncated_exponential": TruncatedExponential(4.0)}


class TestArrayWeightOracle:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_array_weight_equals_scalar_oracle_bitwise(self, name, n):
        rates = np.concatenate([np.arange(1, n) / n, OFF_GRID])
        for ref in oracle_references(n).values():
            cdf, dens = ref.cdf_at(rates).tolist(), ref.density_at(rates).tolist()
            schemes = oracle_schemes(name, ref)
            for scheme in schemes:
                got = pointwise_weight(scheme, rates)
                want = np.array([oracle_weight(scheme, p, c, d)
                                 for p, c, d in zip(rates.tolist(), cdf, dens)])
                assert got.shape == rates.shape
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            if not needs_reference(schemes[0]):
                break

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_reference_lookups_are_elementwise(self, n):
        rates = np.concatenate([np.arange(1, n) / n, OFF_GRID[:500], OFF_GRID[-2:]])
        for label, ref in oracle_references(n).items():
            for lookup in (ref.cdf_at, ref.density_at):
                one_by_one = [float(lookup(p)) for p in rates.tolist()]
                assert lookup(rates).tolist() == one_by_one, label

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("bad", [0.0, -0.0, -0.5, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_rate_outside_open_interval_rejected(self, name, bad):
        for scheme in oracle_schemes(name, refdist.uniform_reference(8)):
            with pytest.raises(ValueError, match="strictly inside"):
                pointwise_weight(scheme, np.array([0.5, bad, 0.25]))

    def test_scalar_rate_gives_a_zero_dimensional_weight(self):
        assert np.shape(pointwise_weight(Grpo(), 0.5)) == ()
        assert pointwise_weight(IntegratedProduct(), np.empty(0)).shape == (0,)


class TestInducedPrior:
    def test_constant_rule_point_mass_at_zero(self):
        assert induced_prior(Reinforce(), 0.0) == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_inverse_rate_rule_is_uniform(self):
        assert induced_prior(MaxRL(), 0.7) == 0.7

    def test_group_normalized_rule_at_half(self):
        assert induced_prior(Grpo(), 0.5) == pytest.approx(0.20787957635076193, abs=1e-15)

    def test_all_schemes_reach_one(self):
        for scheme in (Reinforce(), Grpo(), MaxRL()):
            assert induced_prior(scheme, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_priors_nondecreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        for scheme in (Reinforce(), Grpo(), MaxRL()):
            values = [induced_prior(scheme, float(p)) for p in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_no_closed_form_for_adaptive_schemes(self):
        with pytest.raises(ValueError):
            induced_prior(Curve(), 0.5)

    def test_quadrature_recovers_closed_forms(self):
        for scheme in (Reinforce(), Grpo(), MaxRL()):
            fn = partial(pointwise_weight, scheme)
            numeric = induced_prior_numeric(fn, GRID_19)
            for p, value in zip(GRID_19, numeric):
                assert abs(induced_prior(scheme, float(p)) - value) < 1e-6
                # a scalar p reads the same value as its entry of the array
                assert induced_prior_numeric(fn, float(p)) == value

    def test_divergent_weight_is_detected(self):
        with pytest.raises(DivergentIntegralError):
            induced_prior_numeric(lambda t: 1.0 / (1.0 - t), 0.5)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5, math.nan])
    def test_rate_outside_the_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            induced_prior_numeric(partial(pointwise_weight, MaxRL()), [0.5, p])


# integrands are called on arrays of points; no RuntimeWarning may escape
# (pyproject turns every one into an error)
class TestQuadrature:
    def test_smooth_integrands(self):
        assert tail_integral(lambda t: t * t, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert tail_integral(np.exp, 0.25) == pytest.approx(math.e - math.exp(0.25), abs=1e-7)

    def test_integrable_endpoint_singularity(self):
        v = tail_integral(lambda t: 1.0 / np.sqrt(1.0 - t), 0.0)
        assert abs(v - 2.0) < 1e-6

    def test_singular_lower_endpoint(self):
        v = tail_integral(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0)
        assert abs(v - 2.0) < 1e-6

    def test_array_of_lower_limits_matches_one_at_a_time(self):
        lower = np.array([[0.0, 0.25], [0.5, 1.0]])
        values = tail_integral(lambda t: t * t, lower)
        assert values.shape == lower.shape
        np.testing.assert_allclose(values, (1.0 - lower ** 3) / 3.0, rtol=0, atol=1e-12)
        for a, v in zip(lower.ravel(), values.ravel()):
            assert tail_integral(lambda t: t * t, float(a)) == v

    def test_strong_divergence_hits_cap(self):
        with pytest.raises(DivergentIntegralError, match="cap"):
            tail_integral(lambda t: (1.0 - t) ** -1.5, 0.5)

    def test_logarithmic_divergence_at_the_lower_end(self):
        # every node is representable here, so the end terms never decay
        with pytest.raises(DivergentIntegralError, match="decayed"):
            tail_integral(lambda t: 1.0 / t, 0.0)

    def test_interior_singularity_reports_cleanly(self):
        with pytest.raises(DivergentIntegralError, match="0.5"):
            tail_integral(lambda t: 1.0 / (t - 0.5), 0.0, 1.0)

    def test_pole_between_nodes(self):
        with pytest.raises(DivergentIntegralError, match="disagree"):
            tail_integral(lambda t: 1.0 / (t - 0.3), 0.0, 1.0)

    def test_logarithmic_divergence_names_the_lower_limit(self):
        with pytest.raises(DivergentIntegralError, match="from 0.5: steps .* disagree"):
            tail_integral(lambda t: 1.0 / (1.0 - t), [1.0, 0.5])

    def test_empty_interval(self):
        assert tail_integral(lambda t: 1.0, 0.7, 0.7) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            tail_integral(lambda t: t, 0.8, 0.7)


class TestReverseHazardIdentity:
    def test_inverse_rate_rule(self):
        assert reverse_hazard_identity_check(MaxRL(), 0.5, step=1e-5) < 1e-6

    def test_group_normalized_rule(self):
        assert reverse_hazard_identity_check(Grpo(), 0.5, step=1e-5) < 1e-4

    def test_constant_rule_near_one(self):
        assert reverse_hazard_identity_check(Reinforce(), 0.9, step=1e-5) < 1e-6

    def test_full_grid_contract(self):
        for scheme in (Reinforce(), Grpo(), MaxRL()):
            for p in GRID_19:
                assert reverse_hazard_identity_check(scheme, float(p)) < 1e-4


class TestCorollaryDegeneration:
    def test_uniform_reference_weight_equals_inverse_rate(self):
        n = 8
        uniform = refdist.uniform_reference(n)
        for p in uniform.grid:
            a = pointwise_weight(Curve(reference=uniform), float(p))
            b = pointwise_weight(MaxRL(), float(p))
            assert abs(a - b) <= 1e-12


class TestUtilities:
    def test_distribution_utility_with_own_cdf_is_noninformative(self):
        # rank transform of a variable by its own CDF is uniform, mean ~ 1/2
        n = 8
        grid = np.arange(1, n) / n
        rates = np.concatenate([grid, grid])  # every grid point twice
        own = refdist.distribution_from_rates(rates, n)
        assert abs(own.raw_cdf_at(rates).mean() - 0.5) <= 1.0 / n

    def test_log_distribution_utility_under_uniform_matches_pointwise(self):
        n = 8
        rates = np.array([1, 3, 5, 7]) / n
        uniform = refdist.uniform_reference(n)
        assert abs(np.log(uniform.raw_cdf_at(rates)).mean() - np.log(rates).mean()) < 1e-12

    def test_single_full_rate_gives_zero(self):
        own = refdist.distribution_from_rates([7 / 8], 8)
        assert np.log(own.raw_cdf_at([7 / 8])).mean() == 0.0


class TestUtilityGapBound:
    def test_identical_reference_gives_zero_gap_and_bound(self):
        n = 8
        rates = np.array([1, 2, 5]) / n
        own = refdist.distribution_from_rates(rates, n)
        gap, bound = utility_gap_bound_check(lambda u: u, 1.0, rates, own)
        assert gap == 0.0
        assert bound == 0.0

    def test_shifted_reference_respects_bound(self):
        n = 8
        rng = np.random.default_rng(21)
        grid = np.arange(1, n) / n
        for _ in range(50):
            rates = rng.choice(grid[:-1], size=20)
            shifted = rates + 1.0 / n
            ref = refdist.distribution_from_rates(shifted, n)
            for _, psi, lipschitz in PROP2_UTILITIES:
                gap, bound = utility_gap_bound_check(psi, lipschitz, rates, ref)
                assert gap <= bound + GAP_BOUND_TOL

    def test_degenerate_rates(self):
        n = 8
        rates = np.full(11, 0.5)
        ref = refdist.distribution_from_rates([0.25, 0.75], n)
        for _, psi, lipschitz in PROP2_UTILITIES:
            gap, bound = utility_gap_bound_check(psi, lipschitz, rates, ref)
            assert gap <= bound + GAP_BOUND_TOL

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
    def test_bound_holds_to_roundoff_on_every_grid(self, n):
        rng = np.random.default_rng(n)
        grid = np.arange(1, n) / n
        for _ in range(200):
            rates = rng.choice(grid, size=int(rng.integers(1, 60)))
            ref = refdist.distribution_from_rates(rng.choice(grid, size=int(rng.integers(1, 60))),
                                                  n)
            for _, psi, lipschitz in PROP2_UTILITIES:
                gap, bound = utility_gap_bound_check(psi, lipschitz, rates, ref)
                assert gap <= bound + GAP_BOUND_TOL

    def test_understated_lipschitz_constant_fails(self):
        # negative control: the clipped log's slope reaches 1e3, not 1
        n = 8
        rates = np.full(10, 1 / n)
        ref = refdist.distribution_from_rates([6 / n], n)
        _, clipped_log, lipschitz = PROP2_UTILITIES[1]
        gap, bound = utility_gap_bound_check(clipped_log, lipschitz, rates, ref)
        assert gap <= bound + GAP_BOUND_TOL
        gap, bound = utility_gap_bound_check(clipped_log, 1.0, rates, ref)
        assert gap > bound + GAP_BOUND_TOL

    def test_empty_rates_rejected(self):
        ref = refdist.distribution_from_rates([0.5], 8)
        with pytest.raises(ValueError, match="at least one pass rate"):
            utility_gap_bound_check(lambda u: u, 1.0, [], ref)


def relative_multiplier(ref, p):
    """p f/F: the log utility's multiplier over the 1/p rule, i.e. p times the Curve weight."""
    return p * pointwise_weight(Curve(ref), p)


class TestRelativeMultiplier:
    def test_log_under_uniform_is_one(self):
        p = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(relative_multiplier(ContinuousUniform(), p), 1.0, atol=1e-12)

    def test_low_mass_reference_is_aggressive(self):
        ref = TruncatedExponential(4.0)
        assert relative_multiplier(ref, 0.2) > relative_multiplier(ref, 0.8)

    def test_reflected_reference_is_conservative(self):
        ref = ReflectedTruncatedExponential(4.0)
        assert relative_multiplier(ref, 0.2) < relative_multiplier(ref, 0.8)

    def test_monotone_on_grid(self):
        agg = relative_multiplier(TruncatedExponential(4.0), GRID_19)
        con = relative_multiplier(ReflectedTruncatedExponential(4.0), GRID_19)
        assert (np.diff(agg) < 0).all()
        assert (np.diff(con) > 0).all()


class TestWeightTable:
    def test_group_normalized_table_is_symmetric(self):
        grid, weights, _ = weight_table(Grpo(), 8)
        assert grid.tolist() == [k / 8 for k in range(1, 8)]
        assert weights.tolist() == weights[::-1].tolist()

    def test_inverse_rate_table_strictly_decreasing(self):
        _, weights, _ = weight_table(MaxRL(), 8)
        assert (np.diff(weights) < 0).all()

    def test_normalization_sums_to_one(self):
        _, _, norm = weight_table(EntropicRisk(2.0), 8)
        assert norm.sum() == pytest.approx(1.0, abs=1e-12)
        # the total is summed left to right on any Python; on this table that
        # order differs from the pairwise and from the correctly rounded sum
        _, weights, norm = weight_table(MaxRL(), 64)
        total = reduce(operator.add, weights.tolist())
        assert total != weights.sum() and total != math.fsum(weights.tolist())
        assert norm.tobytes() == (weights / total).tobytes()

    def test_all_zero_weights_rejected(self):
        ref = refdist.ReferenceDistribution(
            n_rollouts=4, bin_mass=[0.5, 0.5, 0.0], cdf=[0.5, 1.0, 1.0],
            density=[0.0, 0.0, 0.0], cdf_floor=0.0, density_floor=0.0)
        with pytest.raises(ValueError, match="finite, positive sum, got 0.0"):
            weight_table(Curve(ref), 4)


@st.composite
def table_cases(draw):
    """A scheme of any kind and parameter, N, and a count row for its table:
    empty rows, sparse rows whose empty bins sit below the density floor,
    and rows whose low bins sit below the CDF floor."""
    n = draw(st.sampled_from([2, 3, 5, 8, 16, 64]))
    row = np.array(draw(st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**4)),
                                 min_size=n - 1, max_size=n - 1)), dtype=np.int64)
    name = draw(st.sampled_from(sorted(SCHEMES)))
    reference = draw(st.sampled_from(["window", "uniform", "pinned"]))
    if reference == "pinned":
        reference = refdist.distribution_from_counts(row, int(row.sum()))
    if name == "entropic_risk":
        scheme = EntropicRisk(draw(st.floats(1e-6, 1e4)))
    elif name == "integrated_convex":
        scheme = IntegratedConvex(draw(st.floats(0.0, 1.0)), reference)
    elif needs_reference(SCHEMES[name]()):
        scheme = SCHEMES[name](reference)
    else:
        scheme = SCHEMES[name]()
    return scheme, n, row


class TestGridWeights:
    @settings(max_examples=300, deadline=None)
    @given(table_cases())
    @example((Curve(), 8, np.zeros(7, np.int64)))
    @example((IntegratedProduct(), 64, np.eye(1, 63, 62, np.int64)[0]))
    def test_table_is_the_reference_objects_weights_at_the_grid(self, case):
        # oracle: the per-step reference object the trainer used to build
        scheme, n, row = case
        grid = np.arange(1, n) / n
        with np.errstate(all="ignore"):
            table = grid_weights(scheme, n, row)
            if needs_reference(scheme) and scheme.reference in ("window", "uniform"):
                ref = refdist.distribution_from_counts(row, row.sum())
                want = pointwise_weight(replace(scheme, reference=ref), grid)
                empty = refdist.distribution_from_counts(np.zeros(n - 1), 0)
                np.testing.assert_array_equal(
                    grid_weights(scheme, n).view(np.uint64),
                    pointwise_weight(replace(scheme, reference=empty), grid).view(np.uint64))
            else:
                want = pointwise_weight(scheme, grid)
        assert table.shape == (n - 1,)
        np.testing.assert_array_equal(table.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(table_cases())
    def test_floored_cdf_is_monotone_in_the_unit_interval(self, case):
        _, _, row = case
        mass, cdf, dens = refdist.floored_histogram(row)
        assert (np.diff(cdf) >= 0.0).all()
        assert ((cdf > 0.0) & (cdf <= 1.0)).all()
        # the uniform reference of an empty row ends at (N - 1)/N
        assert cdf[-1] == (1.0 if row.any() else row.size / (row.size + 1))
        assert (np.isfinite(dens) & (dens > 0.0)).all() and (mass >= 0.0).all()

    def test_rows_are_tabulated_independently(self):
        # reference_csv_columns reads every logged row in one call
        rows = np.array([[0, 0, 0], [5, 0, 1], [0, 0, 0], [1, 2, 3]], np.int64)
        block = refdist.floored_histogram(rows)
        for i, row in enumerate(rows):
            for got, want in zip(block, refdist.floored_histogram(row)):
                assert got[i].tobytes() == want.tobytes()

    def test_weight_table_is_the_grid_table(self):
        for scheme in (Grpo(), Curve(), IntegratedConvex(0.3, "uniform"),
                       Curve(TruncatedExponential(4.0))):
            grid, weights, _ = weight_table(scheme, 16)
            assert grid.tobytes() == (np.arange(1, 16) / 16).tobytes()
            assert weights.tobytes() == grid_weights(scheme, 16).tobytes()


class TestReferences:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_truncated_exponential_rejects_a_bad_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be finite and > 0"):
            TruncatedExponential(rate)

    def test_reflected_exponential_rejects_an_overflowing_rate(self):
        # exp(rate) must be finite, or every lookup overflows
        largest = math.log(np.finfo(np.float64).max)
        assert np.isfinite(ReflectedTruncatedExponential(largest).cdf_at(0.5))
        for rate in (np.nextafter(largest, np.inf), 710.0, 1e4, math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="rate must be in"):
                ReflectedTruncatedExponential(rate)

    def test_reflected_exponential_density_is_finite_at_a_steep_rate(self):
        # exp(rate p) alone overflows here; the density itself is about rate
        rate, p = 709.0, np.array([0.999, 0.9999])
        expected = rate * np.exp(rate * (p - 1.0)) / -math.expm1(-rate)
        np.testing.assert_allclose(ReflectedTruncatedExponential(rate).density_at(p), expected,
                                   rtol=1e-9, atol=0.0)


class TestPositivity:
    def test_all_schemes_positive_on_interior_grid(self):
        refs = [ContinuousUniform(), TruncatedExponential(4.0),
                ReflectedTruncatedExponential(4.0)]
        schemes = [Reinforce(), Grpo(), MaxRL(), EntropicRisk(0.5), EntropicRisk(10.0)]
        for ref in refs:
            schemes += [Curve(ref), IntegratedConvex(0.5, ref), IntegratedProduct(ref)]
        for scheme in schemes:
            for p in GRID_19:
                assert pointwise_weight(scheme, float(p)) > 0.0


class TestSchemeSerialization:
    def test_round_trip(self):
        for scheme in (Reinforce(), Grpo(), MaxRL(), EntropicRisk(2.5),
                       Curve(), Curve(reference="uniform"),
                       IntegratedConvex(0.5), IntegratedProduct()):
            assert parse_scheme(_dump(scheme)) == scheme

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_scheme({"name": "maxrl", "bogus": 1})
        for name in ("nope", ["curve"], None):
            with pytest.raises(ConfigError, match="scheme.name"):
                parse_scheme({"name": name})
        with pytest.raises(ConfigError, match="missing keys \\['eta'\\]"):
            parse_scheme({"name": "entropic_risk"})
