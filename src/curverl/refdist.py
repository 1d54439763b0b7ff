"""Reference pass-rate distributions on the rollout grid.

With N rollouts per prompt, empirical pass rates kept for training live on
the interior grid {1/N, ..., (N-1)/N} (rates 0 and 1 carry no gradient and
are dropped). The trainer counts its recent rates c/N by c, and the counts
give a histogram estimate of the reference CDF and density; bin width is 1/N,
so density is mass * N and is exact for grid-valued data.

``_histogram`` is the one rule that turns count rows into references, and
the one place an empty row becomes the uniform reference
(:func:`uniform_reference`).

Floors keep the CDF and density away from zero because the adaptive weight
divides by the CDF: cdf_floor = 1/(count+1), density_floor = 0.5*N/(count+1).
The floors are a weighting safeguard only; distances between distributions
(:func:`wasserstein1`) use the raw, pre-floor CDFs.

Lookups (``cdf_at``, ``density_at``) take arrays of pass rates, snap each to
its nearest interior grid point by the rule that bins the histogram, and
count the off-grid ones (:func:`offgrid_snap_count`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .passrate import population_pass_rates

__all__ = [
    "ReferenceDistribution",
    "uniform_reference",
    "distribution_from_counts",
    "distribution_from_rates",
    "floored_histogram",
    "exact_policy_distribution",
    "wasserstein1",
    "offgrid_snap_count",
    "reference_csv_columns",
    "REFERENCE_CSV_HEADER",
    "load_reference_csv",
]


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


def _histogram(counts: np.ndarray, total, sample_count):
    """Bin mass, raw CDF, raw density, CDF floor and density floor of the
    histograms ``counts`` along the last axis (entry k - 1 the count at k/N,
    so N is ``counts.shape[-1] + 1``). ``total``, each histogram's sum, and
    ``sample_count``, which sizes its floors, broadcast against ``counts``.
    A histogram with no mass (a total <= 0) is the uniform reference: mass
    1/N, CDF k/N, density 1 and floors 0."""
    n_rollouts = counts.shape[-1] + 1
    empty = total <= 0
    some_empty = np.count_nonzero(empty) > 0
    # an empty histogram divides by 1, then takes the uniform values below
    mass = counts / (np.where(empty, 1, total) if some_empty else total)
    # cumsum roundoff can leave the total an ulp either side of 1: cap every
    # entry at 1 and pin the terminal one (by a slice, so that a grid with no
    # interior point reaches ReferenceDistribution's n_rollouts check)
    cdf = np.minimum(np.cumsum(mass, axis=-1), 1.0)
    cdf[..., -1:] = 1.0
    density = mass * n_rollouts
    cdf_floor = 1.0 / (sample_count + 1)
    density_floor = 0.5 * n_rollouts / (sample_count + 1)
    if some_empty:
        np.copyto(mass, 1.0 / n_rollouts, where=empty)
        np.copyto(cdf, np.arange(1, n_rollouts) / n_rollouts, where=empty)
        np.copyto(density, 1.0, where=empty)
        cdf_floor = np.where(empty, 0.0, cdf_floor)
        density_floor = np.where(empty, 0.0, density_floor)
    return mass, cdf, density, cdf_floor, density_floor


def _floor_cdf(cdf: np.ndarray, floor) -> np.ndarray:
    """The CDF weighting reads: raised to ``floor`` and capped at 1."""
    return np.minimum(np.maximum(cdf, floor), 1.0)


def floored_histogram(counts: np.ndarray):
    """Raw mass, floored CDF and floored density of the count rows ``counts``
    along the last axis (entry c - 1 the count at c/N), each row's sum its
    sample count: the values the lookups of ``distribution_from_counts(row,
    row.sum())`` read at the grid, bit for bit. An empty row is uniform."""
    total = counts.sum(axis=-1, keepdims=True)
    mass, cdf, density, cdf_floor, density_floor = _histogram(counts, total, total)
    return mass, _floor_cdf(cdf, cdf_floor), np.maximum(density, density_floor)


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
        return _floor_cdf(self.cdf, self.cdf_floor)[_query_indices(p, self.n_rollouts)]

    def density_at(self, p) -> np.ndarray:
        """Floored per-unit-length density at the grid point nearest each rate of p."""
        return np.maximum(self.density, self.density_floor)[_query_indices(p, self.n_rollouts)]

    def raw_cdf_at(self, p) -> np.ndarray:
        return self.cdf[_query_indices(p, self.n_rollouts)]


def uniform_reference(n_rollouts: int) -> ReferenceDistribution:
    """Continuous Uniform(0,1) sampled at the grid: F(k/N) = k/N, f = 1.

    This is the histogram of N - 1 zeros by ``_histogram``'s empty-row rule,
    and the neutral reference under which the adaptive weight degenerates to
    1/p exactly. Its floors are 0, so its floored values are its raw ones.
    """
    return distribution_from_counts(np.zeros(n_rollouts - 1), 0)


def distribution_from_counts(counts, sample_count: int) -> ReferenceDistribution:
    """Histogram of ``counts``, entry k - 1 the count (or weight) at k/N, so
    N is ``len(counts) + 1``; ``sample_count`` samples size the floors.
    By ``_histogram``'s rule, no mass (a total <= 0) is the uniform reference."""
    counts = np.asarray(counts, dtype=np.float64)
    mass, cdf, density, cdf_floor, density_floor = _histogram(
        counts, counts.sum(), sample_count)
    return ReferenceDistribution(
        n_rollouts=counts.size + 1,
        bin_mass=mass,
        cdf=cdf,
        density=density,
        cdf_floor=float(cdf_floor),
        density_floor=float(density_floor),
    )


def distribution_from_rates(rates, n_rollouts: int, weights=None) -> ReferenceDistribution:
    """Snap finite rates onto the interior grid and histogram them, with
    optional per-rate weights."""
    rates = np.asarray(rates, dtype=np.float64).ravel()
    if not np.all(np.isfinite(rates)):
        raise ValueError("rates must be finite")
    counts = np.bincount(_grid_indices(rates, n_rollouts) - 1, minlength=n_rollouts - 1,
                         weights=None if weights is None else np.ravel(weights))
    return distribution_from_counts(counts, rates.size)


def exact_policy_distribution(population, n_rollouts: int) -> ReferenceDistribution:
    """Grid histogram of the analytic pass rates of a population under d0.

    This is the pushforward of the base prompt distribution through the exact
    pass-rate map, used as the oracle target for the trainer's window estimate.
    """
    rates = population_pass_rates(population.logits, population.correct)
    return distribution_from_rates(rates, n_rollouts, weights=population.base_weights)


def wasserstein1(a: ReferenceDistribution, b: ReferenceDistribution) -> float:
    """1-d W1 distance on the shared grid: sum |F_a - F_b| / N, pre-floor CDFs."""
    if a.n_rollouts != b.n_rollouts:
        raise ValueError("distributions live on different grids")
    return float(np.abs(a.cdf - b.cdf).sum() / a.n_rollouts)


REFERENCE_CSV_HEADER = ("step", "grid_point", "mass", "cdf", "density")


def reference_csv_columns(steps, counts):
    """The ``(step, grid_point, mass, cdf, density)`` columns for the window
    count rows ``counts`` logged at ``steps``: one row per grid point, the
    steps in order. Row t of the (steps, N - 1) ``counts`` holds the window's
    count at c/N in entry c - 1, and gives the reference built from that
    window: :func:`floored_histogram` of the rows, the bits of
    :func:`distribution_from_counts` (an empty row is uniform). mass is raw;
    cdf and density are floored, as the lookups read them.

    A row records the window a step saw, not what the step weighed with: a
    cold-start step (window below ``min_window_count``) weighs under the
    uniform reference, and a scheme that reads no window ignores it."""
    counts = np.asarray(counts, dtype=np.int64)
    n_steps, n_bins = counts.shape
    n_rollouts = n_bins + 1
    mass, cdf, density = floored_histogram(counts)
    return (
        np.repeat(np.asarray(steps, dtype=np.int64), n_bins),
        np.tile(np.arange(1, n_rollouts) / n_rollouts, n_steps),
        mass.ravel(),
        cdf.ravel(),
        density.ravel(),
    )


def load_reference_csv(path) -> ReferenceDistribution:
    """Rebuild a reference from a dump, using the last step block in the file.

    Loaded cdf/density columns are already floored, so the instance carries
    zero floors and reproduces the dumped weights exactly.
    """
    steps: dict[int, list[tuple]] = {}  # per step: (grid_point, mass, cdf, density, line)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != REFERENCE_CSV_HEADER:
            raise ValueError(f"{path}: unexpected reference CSV header: {header}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            where = f"{path}: line {lineno}"
            if len(cells) != len(REFERENCE_CSV_HEADER):
                raise ValueError(f"{where}: expected 5 fields, got {len(cells)}")
            row = []
            for name, cell in zip(REFERENCE_CSV_HEADER, cells):
                parse, kind = (int, "an integer") if name == "step" else (float, "a number")
                try:
                    row.append(parse(cell))
                except ValueError:
                    raise ValueError(f"{where}: {name} must be {kind}, got {cell!r}") from None
                if not 0 <= row[-1] < np.inf:
                    raise ValueError(f"{where}: {name} must be finite and nonnegative, got {cell}")
            steps.setdefault(row[0], []).append((*row[1:], lineno))
    if not steps:
        raise ValueError(f"no reference rows in {path}")
    last = max(steps)
    rows = sorted(steps[last], key=lambda r: r[0])
    n = len(rows) + 1
    grid, mass, cdf, density = np.array([r[:4] for r in rows]).T
    if not np.allclose(grid, np.arange(1, n) / n, atol=1e-12):
        raise ValueError(f"{path}: step {last}: reference CSV grid is not of the form k/N")
    # the weights divide by the cdf and take its log, and the lookups would
    # clamp a cell above 1; a drop is checked as ReferenceDistribution does
    for i in range(n - 1):
        if not 0.0 < cdf[i] <= 1.0:
            raise ValueError(f"{path}: step {last}, grid point {grid[i]:.17g}: cdf must be "
                             f"{'> 0' if cdf[i] <= 0.0 else '<= 1'}, got {cdf[i]:.17g}")
        if i and cdf[i] - cdf[i - 1] < -1e-12:
            raise ValueError(f"{path}: line {rows[i][4]}: cdf must be nondecreasing, "
                             f"got {cdf[i]:.17g} after {cdf[i - 1]:.17g}")
    return ReferenceDistribution(
        n_rollouts=n,
        bin_mass=mass,
        cdf=cdf,
        density=density,
        cdf_floor=0.0,
        density_floor=0.0,
    )
