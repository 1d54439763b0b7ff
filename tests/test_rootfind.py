"""The in-repo Brent solver against scipy.optimize.brentq, root for root, bit for bit.

scipy is only the oracle here; curverl itself never imports it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")

from curverl.passrate import _OFFSET_BRACKET, _solve_logit_offset, softmax  # noqa: E402
from curverl.references import (  # noqa: E402
    ReflectedTruncatedExponential,
    TruncatedExponential,
    fit_reference_to_rates,
)
from curverl.rootfind import brentq  # noqa: E402

targets = st.floats(min_value=1e-8, max_value=1.0 - 1e-8)


def offset_problem(m, seed, target):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(m)
    mask = np.zeros(m, dtype=bool)
    mask[rng.choice(m, size=int(rng.integers(1, max(1, m // 4) + 1)), replace=False)] = True
    return base, mask, lambda d: float(softmax(base + d * mask)[mask].sum()) - target


def outcome(solver, f, a, b):
    """The root's bits, or the error a solver raised."""
    try:
        return solver(f, a, b).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(m=st.sampled_from([2, 16, 256]), seed=st.integers(0, 2**32 - 1), target=targets)
    @example(m=2, seed=0, target=1e-8)
    @example(m=256, seed=0, target=1.0 - 1e-8)
    def test_softmax_offset_roots(self, m, seed, target):
        base, mask, f = offset_problem(m, seed, target)
        expected = scipy_optimize.brentq(f, -_OFFSET_BRACKET, _OFFSET_BRACKET,
                                         xtol=1e-13, rtol=8.9e-16, maxiter=200)
        assert _solve_logit_offset(base, mask, target).hex() == expected.hex()

    @settings(max_examples=300, deadline=None)
    @given(mean=st.floats(min_value=0.0021, max_value=0.9979).filter(lambda x: abs(x - 0.5) >= 1e-9))
    def test_truncated_exponential_mean_fits(self, mean):
        ref = fit_reference_to_rates([mean])
        target = min(mean, 1.0 - mean)
        expected = scipy_optimize.brentq(lambda lam: TruncatedExponential(lam).mean() - target,
                                         1e-8, 500.0, xtol=1e-13, maxiter=200)
        kind = TruncatedExponential if mean < 0.5 else ReflectedTruncatedExponential
        assert isinstance(ref, kind)
        assert ref.rate.hex() == expected.hex()

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-10, 10), scale=st.floats(0.01, 100),
           lo=st.floats(0.001, 20), hi=st.floats(0.001, 20), power=st.sampled_from([1, 3, 5]))
    def test_odd_power_roots(self, root, scale, lo, hi, power):
        def f(x):
            return scale * (x - root) ** power

        a, b = root - lo, root + hi
        assert outcome(brentq, f, a, b) == outcome(scipy_optimize.brentq, f, a, b)


class TestEdges:
    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0)])
    def test_zero_endpoint_returns_it(self, a, b):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert brentq(f, a, b) == scipy_optimize.brentq(f, a, b) == 1.0
        # both endpoints are evaluated before either is checked, then nothing else
        assert calls == [a, b, a, b]

    def test_same_sign_bracket(self):
        with pytest.raises(ValueError, match="different signs"):
            scipy_optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value(self):
        def f(x):
            return math.nan if x > 0.5 else x - 0.25

        with pytest.raises(ValueError, match="NaN"):
            scipy_optimize.brentq(f, 0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0)

    @pytest.mark.parametrize("maxiter", [0, 1, 2, 3])
    def test_runtime_error_after_maxiter(self, maxiter):
        _, _, f = offset_problem(16, 7, 0.3)
        kwargs = dict(xtol=1e-13, rtol=8.9e-16, maxiter=maxiter)
        with pytest.raises(RuntimeError) as theirs:
            scipy_optimize.brentq(f, -_OFFSET_BRACKET, _OFFSET_BRACKET, **kwargs)
        with pytest.raises(RuntimeError) as ours:
            brentq(f, -_OFFSET_BRACKET, _OFFSET_BRACKET, **kwargs)
        assert str(ours.value) == str(theirs.value)

    def test_tolerances_are_checked(self):
        with pytest.raises(ValueError, match="xtol"):
            brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
        with pytest.raises(ValueError, match="rtol"):
            brentq(lambda x: x, -1.0, 1.0, rtol=1e-16)
