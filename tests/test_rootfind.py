"""The in-repo Brent solver against scipy.optimize.brentq, root for root, bit for bit.

scipy is only the oracle here; curverl itself never imports it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")

from curverl.passrate import _OFFSET_BRACKET, _solve_logit_offsets  # noqa: E402
from curverl.rootfind import brentq_lanes  # noqa: E402
from test_passrate import OFFSET_TOLERANCES, brentq, counting_gap_evaluations, offset_gap  # noqa: E402

targets = st.floats(min_value=1e-8, max_value=1.0 - 1e-8)


def offset_problem(m, seed, target):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(m)
    mask = np.zeros(m, dtype=bool)
    mask[rng.choice(m, size=int(rng.integers(1, max(1, m // 4) + 1)), replace=False)] = True
    return base, mask, offset_gap(base, mask, target)


def offset_batch(m, seed, problems):
    """Base logits, correct masks and targets of one offset problem per
    ``(n_correct, target)`` pair, all at M = ``m``."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((len(problems), m))
    mask = np.zeros(base.shape, dtype=bool)
    for row, (n_correct, _) in zip(mask, problems):
        row[rng.choice(m, size=n_correct, replace=False)] = True
    return base, mask, np.array([target for _, target in problems])


@st.composite
def offset_batches(draw, max_lanes=32):
    """1 to ``max_lanes`` offset problems at one M, each with its own
    correct-set size."""
    m = draw(st.sampled_from([2, 16, 256, 1024]))
    problems = draw(st.lists(st.tuples(st.integers(1, max(1, m // 4)), targets),
                             min_size=1, max_size=max_lanes))
    return offset_batch(m, draw(st.integers(0, 2**32 - 1)), problems)


# the extreme targets at both ends of M, then a batch whose lanes converge
# at different iterations (see TestLanes.test_lanes_converge_at_different_iterations),
# then correct sets of exactly 8 entries and of more than numpy's 128-entry
# pairwise block
EDGE_BATCHES = [
    offset_batch(2, 0, [(1, 1e-8), (1, 1.0 - 1e-8)]),
    offset_batch(256, 0, [(64, 1.0 - 1e-8), (1, 1e-8), (9, 0.5), (33, 1e-8)]),
    offset_batch(16, 3, [(1, 0.01), (4, 0.99), (2, 0.5), (3, 1e-8), (1, 0.3)]),
    offset_batch(1024, 1, [(129, 0.7), (8, 0.3), (256, 1e-8), (8, 1.0 - 1e-8), (200, 0.5)]),
]


def solve_counting(base, mask, target):
    """Lockstep offset roots and the number of gap evaluations the solve took."""
    with counting_gap_evaluations() as calls:
        roots = _solve_logit_offsets(base, mask, target)
    return roots, calls[0]


def outcome(solver, f, a, b):
    """The root's bits, or the error a solver raised."""
    try:
        return solver(f, a, b).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestMatchesScipy:
    @settings(max_examples=80, deadline=None)
    @given(batch=offset_batches())
    @example(batch=EDGE_BATCHES[0])
    @example(batch=EDGE_BATCHES[1])
    @example(batch=EDGE_BATCHES[3])
    def test_softmax_offset_roots(self, batch):
        # one lockstep solve; every lane's root is scipy's on that problem alone
        base, mask, target = batch
        roots = _solve_logit_offsets(base, mask, target)
        for i, root in enumerate(roots):
            expected = scipy_optimize.brentq(offset_gap(base[i], mask[i], target[i]),
                                             -_OFFSET_BRACKET, _OFFSET_BRACKET, **OFFSET_TOLERANCES)
            assert float(root).hex() == expected.hex(), f"lane {i}"

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
        kwargs = dict(OFFSET_TOLERANCES, maxiter=maxiter)
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


class TestLanes:
    @settings(max_examples=30, deadline=None)
    @given(batch=offset_batches(max_lanes=8))
    @example(batch=EDGE_BATCHES[2])
    @example(batch=EDGE_BATCHES[3])
    def test_batch_equals_one_lane_solves(self, batch):
        base, mask, target = batch
        roots, calls = solve_counting(base, mask, target)
        lane_calls = []
        for i in range(len(target)):
            root, n = solve_counting(base[i:i + 1], mask[i:i + 1], target[i:i + 1])
            assert root[0].hex() == roots[i].hex(), f"lane {i}"
            lane_calls.append(n)
        # a lockstep solve runs exactly as long as its slowest lane
        assert calls == max(lane_calls)

    def test_lanes_converge_at_different_iterations(self):
        base, mask, target = EDGE_BATCHES[2]
        lane_calls = [solve_counting(base[i:i + 1], mask[i:i + 1], target[i:i + 1])[1]
                      for i in range(len(target))]
        assert len(set(lane_calls)) > 2

    def test_zero_lanes(self):
        assert brentq_lanes(lambda x, lanes: x, [], []).shape == (0,)

    def test_endpoint_roots_leave_the_other_lanes_running(self):
        roots = brentq_lanes(lambda x, lanes: x - np.array([0.0, 1.0, 0.3])[lanes],
                             [0.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        assert roots[0] == 0.0 and roots[1] == 1.0
        assert roots[2].hex() == brentq(lambda x: x - 0.3, -1.0, 1.0).hex()

    def test_same_sign_bracket_names_the_lane(self):
        shift = np.array([-1.0, -0.5, 1.0, -2.0])
        with pytest.raises(ValueError, match=r"^lane 2: f\(a\) and f\(b\) must have different signs$"):
            brentq_lanes(lambda x, lanes: x * x + shift[lanes], 0.0, np.full(4, 3.0))

    def test_nan_value_names_the_lane(self):
        roots = np.array([0.2, 0.5, 0.6])

        def f(x, lanes):
            fx = x - roots[lanes]
            fx[(lanes == 1) & (np.abs(x - 0.5) < 0.05)] = math.nan
            return fx

        # lane 1's first step lands on its root, inside the NaN window
        with pytest.raises(ValueError, match=r"^lane 1: The function value at x=0\.5 is NaN"):
            brentq_lanes(f, np.zeros(3), np.ones(3))

    def test_maxiter_names_the_first_running_lane(self):
        # lane 0's first bisection lands on its root; lanes 1 and 2 need more
        # than three iterations
        roots = np.array([0.0, 0.3, 0.7])
        with pytest.raises(RuntimeError, match=r"^lane 1: Failed to converge after 3 iterations\.$"):
            brentq_lanes(lambda x, lanes: np.tanh(x - roots[lanes]), np.full(3, -5.0), 5.0,
                         maxiter=3)
