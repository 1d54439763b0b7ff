"""Reference pass-rate distributions on the rollout grid.

With N rollouts per prompt, empirical pass rates kept for training live on
the interior grid {1/N, ..., (N-1)/N} (rates 0 and 1 carry no gradient and
are dropped). A sliding window of recent rates feeds a histogram estimate of
the reference CDF and density; bin width is 1/N, so density is mass * N and
is exact for grid-valued data.

Floors keep the CDF and density away from zero because the adaptive weight
divides by the CDF: cdf_floor = 1/(count+1), density_floor = 0.5*N/(count+1).
The floors are a weighting safeguard only; distances between distributions
(:func:`wasserstein1`) use the raw, pre-floor CDFs.

Lookups (``cdf_at``, ``density_at``) take arrays of pass rates, snap each to
its nearest interior grid point by the rule that bins the histogram, and
count the off-grid ones (:func:`offgrid_snap_count`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .passrate import population_pass_rates

__all__ = [
    "ColdStartError",
    "SlidingWindow",
    "ReferenceDistribution",
    "uniform_reference",
    "estimate",
    "distribution_from_rates",
    "exact_policy_distribution",
    "wasserstein1",
    "offgrid_snap_count",
    "reference_csv_columns",
    "REFERENCE_CSV_HEADER",
    "load_reference_csv",
]


class ColdStartError(RuntimeError):
    """The window holds no rates yet; callers fall back to the uniform reference."""


_offgrid_snaps = 0


def offgrid_snap_count() -> int:
    """Number of off-grid queries snapped to the nearest grid point so far."""
    return _offgrid_snaps


def _grid_indices(rates: np.ndarray, n_rollouts: int) -> np.ndarray:
    """Nearest interior grid index (1-based k of k/N) of each finite rate, half
    to even, clamped to [1, N - 1]: the histogram's and the lookups' one rule."""
    return np.clip(np.rint(rates * n_rollouts), 1, n_rollouts - 1).astype(np.int64)


def _query_indices(p, n_rollouts: int) -> np.ndarray:
    """0-based grid positions of the rates ``p``; counts the off-grid ones."""
    global _offgrid_snaps
    p = np.asarray(p, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("pass rate queries must be finite")
    k = _grid_indices(p, n_rollouts)
    # a query whose rounding was clamped lies at least half a bin away
    _offgrid_snaps += int(np.count_nonzero(np.abs(p * n_rollouts - k) > 1e-9))
    return k - 1


@dataclass
class SlidingWindow:
    """FIFO store of per-step pass-rate arrays covering the last t0 steps.

    Each push appends one ``(step, rates)`` entry. Eviction is by step tag:
    pushing at step t first removes every entry with tag <= t - t0, so the
    window always spans steps (t - t0, t]. Rates outside (0, 1) are dropped
    on append; they carry no gradient and would distort the reference
    estimate. ``len`` counts rates, not entries. ``capacity`` (t0 x batch
    size, when known) is an invariant the step-tag eviction guarantees for
    per-step pushes of at most one batch; it is asserted when set.
    """

    t0: int
    capacity: int | None = None
    entries: deque = field(default_factory=deque)
    _size: int = field(default=0, init=False, repr=False)
    _last_step: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.t0 < 1:
            raise ValueError("t0 must be >= 1")
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 when given")

    def __len__(self) -> int:
        return self._size

    def push(self, step: int, pass_rates) -> None:
        if self._last_step is not None and step < self._last_step:
            raise ValueError(f"steps must be nondecreasing (got {step} after {self._last_step})")
        self._last_step = step
        cutoff = step - self.t0
        while self.entries and self.entries[0][0] <= cutoff:
            self._size -= self.entries.popleft()[1].size
        rates = np.asarray(pass_rates, dtype=np.float64).ravel()
        kept = rates[(rates > 0.0) & (rates < 1.0)]
        if kept.size:
            self.entries.append((step, kept))
            self._size += kept.size
        if self.capacity is not None and self._size > self.capacity:
            raise RuntimeError(
                f"window holds {self._size} rates, beyond capacity {self.capacity}"
            )

    def rates(self) -> np.ndarray:
        if not self.entries:
            return np.empty(0)
        return np.concatenate([r for _, r in self.entries])


@dataclass(frozen=True)
class ReferenceDistribution:
    """Histogram distribution over the interior rollout grid.

    ``cdf`` and ``density`` hold the raw (pre-floor) values; the ``cdf_at`` /
    ``density_at`` accessors apply the floors used by weighting. The terminal
    CDF entry of any histogram-estimated instance is 1; the uniform reference
    is the one exception (it represents the continuous uniform law evaluated
    at grid points, so its terminal entry is (N-1)/N).
    """

    n_rollouts: int
    bin_mass: np.ndarray
    cdf: np.ndarray
    density: np.ndarray
    sample_count: int
    cdf_floor: float
    density_floor: float

    def __post_init__(self) -> None:
        n = self.n_rollouts
        if n < 2:
            raise ValueError("n_rollouts must be >= 2")
        for name in ("bin_mass", "cdf", "density"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n - 1,):
                raise ValueError(f"{name} must have length n_rollouts - 1")
            if not (np.isfinite(arr) & (arr >= 0)).all():
                raise ValueError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, arr)
        if np.any(np.diff(self.cdf) < -1e-12):
            raise ValueError("cdf must be nondecreasing")

    @property
    def grid(self) -> np.ndarray:
        return np.arange(1, self.n_rollouts) / self.n_rollouts

    def cdf_at(self, p) -> np.ndarray:
        """Floored cumulative mass at the grid point nearest each rate of p; never 0."""
        return self.floored_cdf()[_query_indices(p, self.n_rollouts)]

    def density_at(self, p) -> np.ndarray:
        """Floored per-unit-length density at the grid point nearest each rate of p."""
        return self.floored_density()[_query_indices(p, self.n_rollouts)]

    def floored_cdf(self) -> np.ndarray:
        return np.minimum(np.maximum(self.cdf, self.cdf_floor), 1.0)

    def floored_density(self) -> np.ndarray:
        return np.maximum(self.density, self.density_floor)

    def raw_cdf_at(self, p) -> np.ndarray:
        return self.cdf[_query_indices(p, self.n_rollouts)]


def uniform_reference(n_rollouts: int) -> ReferenceDistribution:
    """Continuous Uniform(0,1) sampled at the grid: F(k/N) = k/N, f = 1.

    This is the cold-start fallback and the neutral reference under which the
    adaptive weight degenerates to 1/p exactly.
    """
    n = n_rollouts
    grid = np.arange(1, n) / n
    return ReferenceDistribution(
        n_rollouts=n,
        bin_mass=np.full(n - 1, 1.0 / n),
        cdf=grid.copy(),
        density=np.ones(n - 1),
        sample_count=0,
        cdf_floor=0.0,
        density_floor=0.0,
    )


def estimate(window: SlidingWindow, n_rollouts: int) -> ReferenceDistribution:
    """Histogram estimate of the reference distribution from the lagged window."""
    return distribution_from_rates(window.rates(), n_rollouts)


def distribution_from_rates(rates, n_rollouts: int, weights=None) -> ReferenceDistribution:
    """Snap finite rates onto the interior grid and histogram them, with
    optional per-rate weights."""
    rates = np.asarray(rates, dtype=np.float64).ravel()
    if rates.size == 0:
        raise ColdStartError("no rates to build a reference distribution from")
    if not np.all(np.isfinite(rates)):
        raise ValueError("rates must be finite")
    w = None if weights is None else np.asarray(weights, dtype=np.float64).ravel()
    counts = np.bincount(_grid_indices(rates, n_rollouts) - 1, weights=w,
                         minlength=n_rollouts - 1).astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise ColdStartError("no mass to build a reference distribution from")
    mass = counts / total
    # cumsum roundoff can leave the total an ulp either side of 1: cap every
    # entry at 1 and pin the terminal one
    cdf = np.minimum(np.cumsum(mass), 1.0)
    cdf[-1] = 1.0
    return ReferenceDistribution(
        n_rollouts=n_rollouts,
        bin_mass=mass,
        cdf=cdf,
        density=mass * n_rollouts,
        sample_count=rates.size,
        cdf_floor=1.0 / (rates.size + 1),
        density_floor=0.5 * n_rollouts / (rates.size + 1),
    )


def exact_policy_distribution(population, n_rollouts: int) -> ReferenceDistribution:
    """Grid histogram of the analytic pass rates of a population under d0.

    This is the pushforward of the base prompt distribution through the exact
    pass-rate map, used as the oracle target for :func:`estimate`.
    """
    rates = population_pass_rates(population.logits, population.correct)
    return distribution_from_rates(rates, n_rollouts, weights=population.base_weights)


def wasserstein1(a: ReferenceDistribution, b: ReferenceDistribution) -> float:
    """1-d W1 distance on the shared grid: sum |F_a - F_b| / N, pre-floor CDFs."""
    if a.n_rollouts != b.n_rollouts:
        raise ValueError("distributions live on different grids")
    return float(np.abs(a.cdf - b.cdf).sum() / a.n_rollouts)


REFERENCE_CSV_HEADER = ("step", "grid_point", "mass", "cdf", "density")


def reference_csv_columns(steps, refs):
    """The ``(step, grid_point, mass, cdf, density)`` columns for the
    references ``refs`` logged at ``steps``: one row per grid point, the
    references in order. cdf and density are the floored values actually
    consumed by weighting, mass is raw."""
    return (
        np.repeat(np.asarray(steps, dtype=np.int64), [ref.n_rollouts - 1 for ref in refs]),
        np.concatenate([ref.grid for ref in refs]),
        np.concatenate([ref.bin_mass for ref in refs]),
        np.concatenate([ref.floored_cdf() for ref in refs]),
        np.concatenate([ref.floored_density() for ref in refs]),
    )


def load_reference_csv(path) -> ReferenceDistribution:
    """Rebuild a reference from a dump, using the last step block in the file.

    Loaded cdf/density columns are already floored, so the instance carries
    zero floors and reproduces the dumped weights exactly.
    """
    steps: dict[int, list[tuple[float, float, float, float]]] = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != REFERENCE_CSV_HEADER:
            raise ValueError(f"unexpected reference CSV header: {header}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            step_s, grid_s, mass_s, cdf_s, dens_s = line.split(",")
            steps.setdefault(int(step_s), []).append(
                (float(grid_s), float(mass_s), float(cdf_s), float(dens_s))
            )
    if not steps:
        raise ValueError(f"no reference rows in {path}")
    last = max(steps)
    rows = sorted(steps[last], key=lambda r: r[0])
    n = len(rows) + 1
    grid = np.array([r[0] for r in rows])
    if not np.allclose(grid, np.arange(1, n) / n, atol=1e-12):
        raise ValueError("reference CSV grid is not of the form k/N")
    cdf = np.array([r[2] for r in rows])
    # the weights divide by the cdf and take its log
    zero = np.flatnonzero(cdf <= 0.0)
    if zero.size:
        i = zero[0]
        raise ValueError(f"{path}: step {last}, grid point {grid[i]:.17g}: "
                         f"cdf must be > 0, got {cdf[i]:.17g}")
    return ReferenceDistribution(
        n_rollouts=n,
        bin_mass=np.array([r[1] for r in rows]),
        cdf=cdf,
        density=np.array([r[3] for r in rows]),
        sample_count=0,
        cdf_floor=0.0,
        density_floor=0.0,
    )
