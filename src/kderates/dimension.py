# dimension.py
# Estimation of the volume dimension from ball-probability decay (exact
# oracles or the empirical measure), plus the comparison estimators:
# box-counting dimension (greedy covers) and correlation dimension
# (pairwise-distance counts).
#
# Every empirical count comes from one scipy k-d tree per sample, reused
# across radii: open balls d2 < r*r for the volume dimension, closed balls
# d2 <= r*r for greedy covers and pair counts.  The volume dimension takes
# every radius of a grid point in one dual-tree count_neighbors traversal.
# Each tree serves only a few traversals, so _tree builds it the cheap way
# (sliding-midpoint splits, no compaction) rather than the balanced way.
# The tree sums d2 coordinate by coordinate, as ((x - y)**2).sum() does, so
# its counts equal those of a brute-force scan (the tests pin this in
# d = 1, 2, 3, on duplicated and flat samples too).  scipy.spatial loads
# when the first tree is built, not when this module is imported.
#
# The limiting definitions carry no finite-sample recipe; the estimators
# here are windowed log-log slopes, and every fit reports its maximal
# log-residual so pre-asymptotic curvature is visible to the caller.

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .artifacts import csv_text
from .distributions import ReferenceDistribution

__all__ = [
    "RateFit",
    "RadiusSweep",
    "fit_loglog",
    "voldim_sweep",
    "voldim_estimate",
    "assumption_check",
    "box_dimension_estimate",
    "correlation_dimension_estimate",
    "dyadic_radii",
    "radius_sweep_csv",
    "write_radius_sweep_csv",
]

@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of a log-log relationship over a radius window."""

    slope: float
    intercept: float
    r_window: tuple[float, float]
    residual: float
    n_points: int = 0


@dataclass(frozen=True)
class RadiusSweep:
    """sup_x of the ball probability at each radius, largest radius first."""

    radii: np.ndarray
    sup_probs: np.ndarray
    source: str

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        p = np.asarray(self.sup_probs, dtype=float)
        order = np.argsort(-r)
        object.__setattr__(self, "radii", r[order])
        object.__setattr__(self, "sup_probs", p[order])
        if np.any((self.sup_probs < 0) | (self.sup_probs > 1)):
            raise ValueError("sup_probs must lie in [0, 1]")


def fit_loglog(x, y, window: tuple[float, float] | None = None) -> RateFit:
    """OLS slope of log y against log x restricted to x in [window]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if window is None:
        window = (float(x.min()), float(x.max()))
    keep = (x >= window[0] - 1e-15) & (x <= window[1] + 1e-15)
    x, y = x[keep], y[keep]
    if x.size < 4:
        raise ValueError(f"need at least 4 points inside the window, got {x.size}")
    if np.any(y <= 0):
        bad = float(x[np.argmax(y <= 0)])
        raise ValueError(f"nonpositive value at x = {bad:g}: log-log fit undefined")
    return _ols_fit(np.log(x), np.log(y), window)


def _ols_fit(lx: np.ndarray, ly: np.ndarray, window: tuple[float, float]) -> RateFit:
    """OLS line through the log-log points (lx, ly), with its maximal residual."""
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return RateFit(float(slope), float(intercept), (float(window[0]), float(window[1])), residual, int(lx.size))


def dyadic_radii(diameter: float, j_min: int = 3, j_max: int = 8) -> np.ndarray:
    """Radii 2^-j * diameter for j in [j_min, j_max] in half-octave steps, descending."""
    js = np.linspace(j_min, j_max, (j_max - j_min) * 2 + 1)
    return diameter * 2.0 ** (-js)


def _as_sample(sample) -> np.ndarray:
    """Sample rows as an (n, d) array; a 1-D array holds n points on a line."""
    sample = np.asarray(sample, dtype=float)
    return sample.reshape(-1, 1) if sample.ndim < 2 else sample


def _tree(sample: np.ndarray) -> scipy.spatial.cKDTree:
    """k-d tree built for a few traversals: sliding-midpoint splits, no compaction."""
    return scipy.spatial.cKDTree(sample, leafsize=32, balanced_tree=False, compact_nodes=False)


def _empirical_counts(sample: np.ndarray, X: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Counts of sample points strictly inside B(x, r); shape (len(radii), len(X)).

    One dual-tree traversal per grid point counts closed balls at every
    radius and at the float below it.  The closed count at the float below r
    never exceeds the open count at r, and the closed count at r never falls
    below it; where the two differ, a point lies within a few ulps of the
    sphere and the ball is recounted with the exact test d2 < r*r.
    """
    tree = _tree(sample)
    below = np.nextafter(radii, 0.0)
    edges = np.unique(np.concatenate([radii, below]))
    i_below, i_at = np.searchsorted(edges, below), np.searchsorted(edges, radii)
    out = np.empty((radii.size, X.shape[0]), dtype=np.int64)
    for j, x in enumerate(X):
        closed = tree.count_neighbors(_tree(x[None, :]), edges)
        out[:, j] = closed[i_below]
        for i in np.flatnonzero(closed[i_below] != closed[i_at]):
            near = sample[tree.query_ball_point(x, radii[i])]
            out[i, j] = np.count_nonzero(((near - x) ** 2).sum(axis=1) < radii[i] * radii[i])
    return out


def voldim_sweep(source, x_grid, radii) -> RadiusSweep:
    """Radius sweep of sup_x P(B(x, r)) from a distribution oracle or a sample.

    ``source`` is a ReferenceDistribution (oracle ball probabilities) or an
    (n, d) array or n scalars (empirical frequencies, open balls).
    ``x_grid`` supplies the candidate supremum locations (an EvalGrid or raw
    points).
    """
    X = np.atleast_2d(np.asarray(getattr(x_grid, "points", x_grid), dtype=float))
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    if isinstance(source, ReferenceDistribution):
        return RadiusSweep(radii, source.ball_prob_table(radii, X).max(axis=1), "oracle")
    sample = _as_sample(source)
    counts = _empirical_counts(sample, X, radii)
    probs = counts.max(axis=1) / sample.shape[0]
    return RadiusSweep(radii, probs, f"empirical(n={sample.shape[0]})")


def voldim_estimate(source, x_grid, radii, window: tuple[float, float] | None = None) -> RateFit:
    """Volume-dimension estimate: slope of log sup_x P(B(x, r)) vs log r."""
    sweep = voldim_sweep(source, x_grid, radii)
    try:
        return fit_loglog(sweep.radii, sweep.sup_probs, window)
    except ValueError as exc:
        raise ValueError(f"volume-dimension fit failed: {exc}") from exc


def assumption_check(dist: ReferenceDistribution, x_grid, radii, nu: float) -> dict:
    """Ratio diagnostics P(B(x,r)) / r^nu over the (x, r) grid.

    ``max_ratio`` is the maximum over all (x, r) (finite under the
    upper-decay assumption at nu = d_vol); ``min_liminf_ratio`` is the max
    over x of the minimum over the small-radius half of the sweep (positive
    under the lower-decay assumption).
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    X = np.atleast_2d(np.asarray(getattr(x_grid, "points", x_grid), dtype=float))
    radii = np.sort(np.asarray(radii, dtype=float))[::-1]
    r_nu = np.array([float(r) ** nu for r in radii])
    ratios = (dist.ball_prob_table(radii, X) / r_nu[:, None]).T
    small = radii.size // 2
    per_x_min = ratios[:, small:].min(axis=1)
    return {"max_ratio": float(ratios.max()), "min_liminf_ratio": float(per_x_min.max())}


def _greedy_cover_count(tree: scipy.spatial.cKDTree, delta: float) -> int:
    """Greedy closed-ball cover with centers at the lowest-index uncovered points."""
    covered = np.zeros(tree.n, dtype=bool)
    count = i = 0
    while i < tree.n and not covered[i]:
        count += 1
        covered[tree.query_ball_point(tree.data[i], delta)] = True
        i += int(covered[i:].argmin())  # the next uncovered index, or i again once all are covered
    return count


def box_dimension_estimate(sample, delta_grid) -> RateFit:
    """Box-counting dimension: slope of log N(delta) against -log delta."""
    sample = _as_sample(sample)
    deltas = np.sort(np.asarray(delta_grid, dtype=float))[::-1]
    if deltas.size < 4:
        raise ValueError("need at least 4 deltas")
    tree = _tree(sample)
    counts = np.array([_greedy_cover_count(tree, float(dl)) for dl in deltas], dtype=float)
    if np.all(counts == 1):
        warnings.warn("degenerate sample: greedy cover is a single ball at every delta")
        return RateFit(0.0, 0.0, (float(deltas.min()), float(deltas.max())), 0.0, int(deltas.size))
    return _ols_fit(-np.log(deltas), np.log(counts), (deltas.min(), deltas.max()))


def correlation_dimension_estimate(sample, r_grid) -> RateFit:
    """Correlation dimension: slope of the log pair-fraction against log r.

    The pair fraction is the U-statistic (2/(n(n-1))) #{i<j : ||X_i - X_j|| <= r}.
    """
    sample = _as_sample(sample)
    n = sample.shape[0]
    if n < 100:
        raise ValueError("need at least 100 sample points")
    radii = np.sort(np.asarray(r_grid, dtype=float))
    if radii.size < 4:
        raise ValueError("need at least 4 radii")
    tree = _tree(sample)
    counts = (tree.count_neighbors(tree, radii) - n) / 2  # ordered pairs, self-pairs removed
    fracs = counts / (n * (n - 1) / 2.0)
    keep = fracs > 0
    if not keep.all():
        warnings.warn(f"zero pair count below r = {radii[~keep].max():g}; shrinking the window")
    radii, fracs = radii[keep], fracs[keep]
    if radii.size < 4:
        raise ValueError("fewer than 4 radii with nonzero pair counts")
    return _ols_fit(np.log(radii), np.log(fracs), (radii.min(), radii.max()))


def radius_sweep_csv(sweep: RadiusSweep) -> str:
    return csv_text(("r", "sup_prob"), zip(sweep.radii, sweep.sup_probs))


def write_radius_sweep_csv(sweep: RadiusSweep, path) -> None:
    Path(path).write_text(radius_sweep_csv(sweep), encoding="utf-8")
