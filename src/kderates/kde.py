# kde.py
# Evaluation of the kernel density estimator and its derivatives over
# point/bandwidth grids, plus grid suprema of |p-hat_h - p_h| with a
# discretization certificate.
#
# The multi-bandwidth evaluator has two paths.  The direct loop serves every
# kernel and derivative order.  It splits the sample into blocks of at most
# 8 Ki points and the evaluation points into chunks of about 64 Ki pairwise
# entries per block (8 points once n >= 8192).  Per chunk and block it writes
# the coordinate differences and r^2 into preallocated buffers once; per
# bandwidth it evaluates the kernel's profile of r^2 into one reused buffer,
# so each pass reads buffers of at most 512 KiB that stay in cache.  For the
# Gaussian that is one in-place multiply and one in-place exp of
# -r^2 / 2h^2: its constant K(0) is applied to the totals, as on the lattice
# path.  Each point's sum over the block is added to a running (bandwidth,
# term, point) total: a row sum for s = 0, and for a derivative one dot
# product of the row with each of the Gaussian's Hermite monomials.  The
# Hermite coefficients, K(0) and 1/(n h^(d+|s|)) are applied once to the
# totals.  A block of 8 Ki keeps every dot product below the 10 000 entries
# above which OpenBLAS splits one over threads, so the bytes do not depend on
# the BLAS thread count.
#
# With more than one block (n > 8192) the direct loop skips the blocks beyond
# the kernel's reach R = Kernel.reach (bandwidths).  It orders the sample once
# into 1024 equal strips of the sample's own x_0 range (a stable radix sort of
# uint16 strip ids), keeps the blocks at fixed positions in that order, and
# takes the evaluation points in x_0 order.  Per chunk, block and bandwidth a
# point adds its row sum over the block only when the block's x_0 range comes
# within R h (plus a few ulps) of the point's x_0; a block that no point of
# the chunk reaches at any bandwidth is not computed.  Whether a point takes
# a block depends on the point, h and the sample alone, its row sums do not
# depend on the other rows of its chunk, and its blocks are added in one
# fixed order, so batch and pointwise evaluation still agree bit for bit.
# With one block the sample keeps its given order and nothing is skipped.
#
# A compact kernel vanishes beyond R, so its skip is exact.  A skipped
# Gaussian pair has |t| > 10 for t = (x - X_i) / h.  There |He_k(u)| <=
# (|u| + sqrt k)^k (bound each coefficient k! / (m! (k-2m)! 2^m) by
# C(k, 2m) k^m), so |D^s K(t)| <= (|t| + sqrt|s|)^|s| exp(-|t|^2 / 2) K(0),
# which decreases in |t| beyond 10 while |s| <= 261.  At most n pairs are
# skipped and the sum is divided by n h^(d+|s|), so each value of
# D^s p-hat_h moves by at most
#     (10 + sqrt|s|)^|s| e^-50 K(0) / h^(d+|s|),
# which is 1.93e-22 K(0) / h^d at s = 0 and lies below the cruder
# (10 + |s|)^|s| e^-50 K(0) / h^(d+|s|).
#
# The product-lattice path serves the Gaussian in d = 2 when the grid has
# fewer distinct coordinates than points, sum_j |unique(X[:, j])| < M, as
# the cube2 lattice and the ball's disk-masked lattice do.  The Gaussian and
# its Hermite derivatives factor by coordinate, so per block of 4 Ki sample
# points and per bandwidth it evaluates one exp per distinct coordinate and
# sample point (30 instead of 225 on the 15 x 15 cube2 lattice) and sums
# over every lattice node with one matrix product.  Its summation order is
# not the direct loop's: on a lattice the two agree to 1e-12 of each
# bandwidth row's maximum, not bit for bit.
#
# Off product lattices (every 1-D grid, the circle, a single point) only the
# direct loop runs.  Its reductions are per evaluation point and the scalar
# entry points delegate to it, so there batch and pointwise evaluation agree
# bit for bit.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ReferenceDistribution
from .kernels import Kernel, MultiIndex, _gaussian_deriv_monomials, _whole

__all__ = [
    "EvalGrid",
    "BandwidthGrid",
    "make_eval_grid",
    "kde_eval",
    "kde_deriv_eval",
    "kde_table",
    "sup_deviation",
    "SupDeviation",
    "discretization_bound",
]

_H_GUARD = 1e-8
_CHUNK_ENTRIES = 1 << 16  # pairwise entries per chunk: each float64 buffer is 512 KiB
_SAMPLE_BLOCK = 1 << 13  # sample points per block of the direct loop; see the module header
_LATTICE_BLOCK = 1 << 12  # sample points per block of the product-lattice path


@dataclass(frozen=True)
class EvalGrid:
    """Finite evaluation set inside X with its covering radius."""

    points: np.ndarray
    spacing: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "spacing", max(float(self.spacing), 1e-12))
        if pts.shape[0] < 1:
            raise ValueError("evaluation grid must be nonempty")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class BandwidthGrid:
    """Log-spaced bandwidth values standing in for the ray [l_n, h_max]."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("bandwidth grid must be a nonempty 1-D array")
        if np.any(vals <= 0):
            raise ValueError("bandwidths must be positive")
        vals = np.sort(vals)
        object.__setattr__(self, "values", vals)

    @property
    def l_n(self) -> float:
        return float(self.values[0])

    @property
    def h_max(self) -> float:
        return float(self.values[-1])

    @classmethod
    def log_spaced(cls, l_n: float, h_max: float, n_points: int | None = None, points_per_decade: int = 16) -> "BandwidthGrid":
        if not 0 < l_n <= h_max < math.inf:
            raise ValueError(f"need 0 < l_n <= h_max < inf, got l_n={l_n}, h_max={h_max}")
        if n_points is None:
            decades = math.log10(h_max / l_n) if h_max > l_n else 0.0
            n_points = max(1, int(math.ceil(decades * points_per_decade)) + 1)
        n_points = _whole(n_points, "n_points", 1)
        if n_points == 1:
            return cls(np.array([l_n]))
        return cls(np.geomspace(l_n, h_max, n_points))

    @classmethod
    def single(cls, h: float) -> "BandwidthGrid":
        return cls(np.array([float(h)]))


def make_eval_grid(dist: ReferenceDistribution, target_size: int) -> EvalGrid:
    """Lattice on the support plus the distribution's candidate sup points."""
    pts, covering = dist.lattice(_whole(target_size, "target_size", 1))
    extra = dist.special_points()
    if extra.size:
        pts = np.vstack([pts, extra])
    pts = np.unique(pts, axis=0)
    return EvalGrid(pts, covering)


def _bbox_diameter(pts: np.ndarray) -> float:
    if pts.shape[0] < 2:
        return 0.0
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def _check_inputs(sample: np.ndarray, kernel: Kernel, h_values: np.ndarray) -> np.ndarray:
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    if sample.shape[0] < 1:
        raise ValueError("sample must be nonempty")
    if sample.shape[1] != kernel.dim:
        raise ValueError(f"sample dimension {sample.shape[1]} != kernel dimension {kernel.dim}")
    diam = _bbox_diameter(sample)
    if diam > 0 and np.any(h_values < _H_GUARD * diam):
        raise ValueError(f"bandwidth below the overflow guard {_H_GUARD} * diam(sample) = {_H_GUARD * diam:.3e}")
    return sample


def kde_table(sample, kernel: Kernel, h_values, X, s=None) -> np.ndarray:
    """p-hat (or D^s p-hat) on the (bandwidth x point) grid; shape (H, M).

    Squared distances, and for a derivative the Hermite monomials of the
    coordinate differences, are computed once per chunk of points and block
    of the sample and shared across all bandwidths.  A Gaussian table on a
    2-D product lattice is factored by coordinate instead (see the module
    header).
    """
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    if h_values.ndim != 1 or not np.all(h_values > 0):
        raise ValueError("bandwidths h must be positive")
    sample = _check_inputs(sample, kernel, h_values)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != kernel.dim:
        raise ValueError(f"evaluation points dimension {X.shape[1]} != kernel dimension {kernel.dim}")
    s = kernel.derivative_index(s)

    n, d = sample.shape
    m = X.shape[0]
    if kernel.form == "gaussian" and d == 2:
        coords, index = zip(*(np.unique(X[:, j], return_inverse=True) for j in range(d)))
        if sum(u.size for u in coords) < m:
            return _lattice_table(sample, kernel, h_values, coords, index, s)
    # D^s K = sum_e c_e t^e K with t = (x - X_i) / h; s = 0 is the one term e = 0, c = 1
    terms = _gaussian_deriv_monomials(s.orders)
    gauss = kernel.form == "gaussian"
    width = min(n, _SAMPLE_BLOCK)
    starts = range(0, n, width)
    # one block keeps the given order and is never skipped
    order, edges = slice(None), [(-np.inf, np.inf)]
    if n > width:
        # the sample in axis-0 strips, the points in x_0 order, and each block's x_0 range
        sample = sample[_strip_order(sample[:, 0])]
        order = np.argsort(X[:, 0], kind="stable")
        edges = [(sample[c : c + width, 0].min(), sample[c : c + width, 0].max()) for c in starts]
    X = X[order]
    cols = np.ascontiguousarray(sample.T)
    # a few ulps above reach * h, so no pair within reach is skipped
    reach = kernel.reach * (1.0 + 2.0**-50) * h_values
    rows = max(1, _CHUNK_ENTRIES // width)
    # the coordinate differences, r^2 and the profile values of one chunk and block
    bufs = np.empty((d + 2, min(rows, m) * width))
    # per bandwidth and term, each point's sum over the sample of profile value times monomial
    sums = np.zeros((h_values.size, len(terms), m))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        for (e_lo, e_hi), c_lo in zip(edges, starts):
            # each point's x_0 distance to the block; points are in x_0 order, so those
            # within a reach form one run of rows
            gap = np.maximum(e_lo - X[lo:hi, 0], X[lo:hi, 0] - e_hi)
            if gap.min() > reach.max():
                continue
            c_hi = min(c_lo + width, n)
            k, w = hi - lo, c_hi - c_lo
            *diff, r2, vals = (b[: k * w].reshape(k, w) for b in bufs)
            for j, dj in enumerate(diff):
                np.subtract(X[lo:hi, j, None], cols[j, c_lo:c_hi], out=dj)
            monos = [
                functools.reduce(np.multiply, [diff[j] ** e for j, e in enumerate(exps) if e]) if any(exps) else None
                for exps, _ in terms
            ]
            np.square(diff[0], out=r2)
            for dj in diff[1:]:
                r2 += np.square(dj, out=vals)
            r2_max = r2.max()
            for i, h in enumerate(h_values):
                near = np.flatnonzero(gap <= reach[i])
                if not near.size:
                    continue
                r_lo, r_hi = near[0], near[-1] + 1
                q, v = r2[r_lo:r_hi], vals[r_lo:r_hi]
                # pairs beyond the negligible radius are evaluated at it; the clamp is
                # skipped when no pair of the block is that far, which changes nothing
                far = kernel.negligible_r2 * h * h
                if r2_max > far:
                    q = np.minimum(q, far, out=v)
                if gauss:
                    # exp(-r^2 / 2h^2) alone: K(0) is applied to the totals
                    np.exp(np.multiply(q, -0.5 / (h * h), out=v), out=v)
                else:
                    kernel.profile_sq(q, h, out=v)
                for part, mono in zip(sums[i], monos):
                    if mono is None:
                        part[lo + r_lo : lo + r_hi] += v.sum(axis=1)
                    else:
                        for r in range(r_lo, r_hi):
                            part[lo + r] += np.dot(vals[r], mono[r])
    out = np.empty((h_values.size, m))
    k0 = kernel.sup_norm if gauss else 1.0
    for i, h in enumerate(h_values):
        acc = 0.0
        for (exps, coef), part in zip(terms, sums[i]):
            acc = acc + coef / h ** sum(exps) * part
        out[i, order] = acc * k0 / (n * h ** (d + s.order))
    return out


def _strip_order(x0: np.ndarray) -> np.ndarray:
    """The sample's stable order by 1024 equal strips of its own x_0 range: a radix sort of uint16 strip ids."""
    lo = x0.min()
    ids = np.minimum((x0 - lo) / ((x0.max() - lo) or 1.0) * 1024.0, 1023.0).astype(np.uint16)
    return np.argsort(ids, kind="stable")


def _lattice_table(sample, kernel: Kernel, h_values, coords, index, s: MultiIndex) -> np.ndarray:
    """The Gaussian table on the 2-D product lattice U_0 x U_1, gathered at the grid points.

    coords[j] holds the distinct coordinates U_j of axis j, and index[j]
    each grid point's position in it.  exp(-|x - X_i|^2 / 2h^2) is the
    product over j of exp(-(x_j - X_ij)^2 / 2h^2), and D^s multiplies axis
    j's factor by its 1-D Hermite polynomial, so per sample block and
    bandwidth the sums over all lattice nodes are one (|U_0| x B) @
    (B x |U_1|) product.  Each axis's squared difference is clamped at the
    negligible radius, as r^2 is on the direct path, which keeps exp out of
    its underflow range.
    """
    n, d = sample.shape
    polys = [_gaussian_deriv_monomials((k,)) for k in s.orders]
    acc = np.zeros((h_values.size,) + tuple(u.size for u in coords))
    for lo in range(0, n, _LATTICE_BLOCK):
        block = sample[lo : lo + _LATTICE_BLOCK]
        diff = [u[:, None] - block[:, j] for j, u in enumerate(coords)]
        powers = [{e: dj**e for (e,), _ in terms if e} for dj, terms in zip(diff, polys)]
        sq = [np.square(dj, out=dj) for dj in diff]
        sq_max = [q.max() for q in sq]
        bufs = [np.empty_like(q) for q in sq]
        for i, h in enumerate(h_values):
            far = kernel.negligible_r2 * h * h
            for q, q_max, buf, terms, pw in zip(sq, sq_max, bufs, polys, powers):
                np.multiply(q if q_max <= far else np.minimum(q, far, out=buf), -0.5 / (h * h), out=buf)
                np.exp(buf, out=buf)
                if pw:
                    buf *= sum(coef / h**e * pw[e] if e else coef for (e,), coef in terms)
            acc[i] += bufs[0] @ bufs[1].T
    # the Gaussian's sup norm K(0) is its normalising constant
    scale = kernel.sup_norm / (n * h_values ** (d + s.order))
    return acc[:, index[0], index[1]] * scale[:, None]


def kde_eval(sample, kernel: Kernel, h: float, x) -> float:
    """p-hat_h(x) = (1/(n h^d)) sum_i K((x - X_i)/h), as the 1x1 table."""
    return kde_deriv_eval(sample, kernel, None, h, x)


def kde_deriv_eval(sample, kernel: Kernel, s, h: float, x) -> float:
    """D^s p-hat_h(x) = (1/(n h^(d+|s|))) sum_i D^s K((x - X_i)/h), as the 1x1 table."""
    return float(kde_table(sample, kernel, [h], np.asarray(x, dtype=float).reshape(1, -1), s=s)[0, 0])


def discretization_bound(kernel: Kernel, s, spacing: float, h: float) -> float:
    """Grid error certificate 2 * Lip(D^s K) * delta_x / h^(d + |s| + 1).

    Both p-hat_h and p_h move at most Lip/h^(d+|s|+1) per unit of x, so the
    grid max underestimates the continuum sup by at most this amount.
    Lip is Kernel.deriv_lipschitz: a certified bound, or the constant a
    custom_radial kernel was given.  Returns inf for kernels without one.
    """
    s = kernel.derivative_index(s)
    lip = kernel.deriv_lipschitz(s)
    if lip is None:
        return math.inf
    return 2.0 * lip * spacing / h ** (kernel.dim + s.order + 1)


@dataclass(frozen=True)
class SupDeviation:
    """Grid supremum of |D^s p-hat_h - D^s p_h| with its certificate."""

    value: float
    argmax_x: np.ndarray
    argmax_h: float
    disc_bound: float
    per_h: np.ndarray = field(repr=False)
    h_values: np.ndarray = field(repr=False)


def sup_deviation(
    sample,
    dist: ReferenceDistribution,
    kernel: Kernel,
    h_grid: BandwidthGrid,
    x_grid: EvalGrid,
    s=None,
) -> SupDeviation:
    """Max over the (h, x) product grid of |D^s p-hat_h(x) - D^s p_h(x)|.

    The discretization bound is evaluated at the smallest bandwidth of the
    ray, where the kernel class is steepest.
    """
    oracle = dist.smoothed_derivative_table(kernel, s, h_grid.values, x_grid.points)
    est = kde_table(sample, kernel, h_grid.values, x_grid.points, s=s)
    diff = np.abs(est - oracle)
    per_h = diff.max(axis=1)
    i = int(np.argmax(per_h))
    j = int(np.argmax(diff[i]))
    bound = discretization_bound(kernel, s, x_grid.spacing, h_grid.l_n)
    return SupDeviation(
        value=float(per_h[i]),
        argmax_x=x_grid.points[j].copy(),
        argmax_h=float(h_grid.values[i]),
        disc_bound=bound,
        per_h=per_h,
        h_values=h_grid.values.copy(),
    )
