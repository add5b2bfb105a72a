# distributions.py
# Reference distributions with seeded samplers and exact (or certified
# high-accuracy) oracles for ball probabilities P(B(x,r)), smoothed
# densities p_h, smoothed derivatives D^s p_h, and k-moments of the kernel.
#
# Sampling uses the counter-based Philox 4x64 generator, so streams are
# reproducible across platforms for a given 64-bit seed.
#
# Three oracles, each a (row, point) table with shape (len(values), len(X)):
#   smoothed_derivative_table(kernel, s, h_values, X)   D^s p_h(x) (s = 0: p_h)
#   moment_table(kernel, s, h_values, X, k)             E|D^s K((x - X)/h)|^k
#   ball_prob_table(radii, X)                           P(B(x, r)), open ball
# All three share one input check, and every pointwise entry point
# (smoothed_density, smoothed_derivative, moment_k, ball_prob) is the 1x1
# table.  Exact routes come from two hooks, each None where there is none:
#   _table          the Gaussian, the one kernel with derivatives, on every
#                   kind: sums over point masses, products of 1-D normal CDF
#                   or density-derivative differences on the cube, one
#                   closed form in Bessel functions per sphere (_gauss_sphere)
#                   pushed forward over the radius on the sphere and the ball,
#                   and the weighted sum of the component tables on mixtures
#   _moment_table   point masses, mixtures (the same weighted sum), spheres
#                   and balls (below), and cube derivatives at k not even
# A Gaussian moment E|D^s K|^k is one sum of D^t p_(h/sqrt(k)) cells by
# Hermite linearisation (_gaussian_moment_terms), for even k, or for any
# k > 0 at s = 0, where the sum is its one t = 0 term: exact tables, or on a
# sphere or ball with s != 0 one sum of closed forms per radius.  Every other
# cell is one certified quadrature over the distance, or over the polar angle
# and the radius.  Ball probabilities are closed form, except off the ball's
# centre and on the cube in d >= 3.  On the ball and the sphere an s = 0 cell
# reads x only through ||x||, so each row computes it once per distinct norm.
#
# The scalar quadrature callbacks take and return Python floats: a radial
# integrand is a float function of the distance, built on Kernel.radial,
# and the cube integrates its distances directly.  QUADPACK calls them
# hundreds of thousands of times per table, so a node must not pass through
# numpy's 0-d array machinery.
#
# Importing this module loads numpy and the bare scipy package only.
# scipy.integrate loads at the first quadrature (_quad) and scipy.special at
# the first Bessel closed form, cap fraction or Gaussian cube table.  The
# closed form binds ive once per cell and the cube table ndtr once per
# table; cap_fraction looks betainc up at each call, which costs about 40 ns
# beside the betainc call's 1.2 us.

from __future__ import annotations

import itertools
import math
import sys
from typing import Sequence

import numpy as np
import scipy

from .kernels import Kernel, MultiIndex, QuadratureError, _check_keys, _whole, unit_ball_volume
from .kernels import _gaussian_deriv_monomials, _gaussian_moment_terms, _phi_deriv

__all__ = [
    "ReferenceDistribution",
    "UniformCube",
    "UnboundedBall",
    "UniformCircle",
    "UniformSphere",
    "PointMasses",
    "Mixture",
    "distribution_from_config",
]

_TINY = 1e-14
# the absolute accuracy every quadrature asks QUADPACK for
_EPSABS = 1e-12
_EPS = sys.float_info.epsilon
# the rounding of a closed form's j-sum, per unit of the sum of the terms' magnitudes
_SUM_ULPS = 8.0 * _EPS


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _quad(f, a, b, points=None, limit=200) -> tuple[float, float]:
    """scipy quad wrapped to return (value, abserr) without printing warnings."""
    out = scipy.integrate.quad(f, a, b, points=points, limit=limit, epsabs=_EPSABS, epsrel=1e-10, full_output=1)
    return float(out[0]), float(out[1])


def _quad_nested(f, a, b, points=None) -> tuple[float, float]:
    """The integral over [a, b] of the value of f(t) -> (value, error), with
    the QUADPACK error plus (b - a) times the largest error of f."""
    errs = []

    def value(t):
        v, e = f(t)
        errs.append(e)
        return v

    v, e = _quad(value, a, b, points=points)
    return v, e + (b - a) * max(errs, default=0.0)


def cap_fraction(cos_theta: float, sphere_dim: int) -> float:
    """Fraction of the unit sphere S^q within angle arccos(cos_theta) of a pole."""
    if cos_theta <= -1.0:
        return 1.0
    if cos_theta >= 1.0:
        return 0.0
    if sphere_dim == 1:
        return math.acos(cos_theta) / math.pi
    sin2 = max(0.0, 1.0 - cos_theta * cos_theta)
    half = 0.5 * scipy.special.betainc(sphere_dim / 2.0, 0.5, sin2)
    return half if cos_theta >= 0.0 else 1.0 - half


def _disk_square_area(c0: float, c1: float, r: float) -> float:
    """Area of the disk of radius r about (c0, c1) inside [0, 1]^2, in closed form.

    At the offset t = u - c0 the chord is clip(c1 + y, 0, 1) - clip(c1 - y, 0, 1)
    with y = sqrt(r^2 - t^2): a constant plus 0, 1 or 2 times y between the
    offsets where a clip switches, and y integrates to (t y + r^2 atan2(t, y)) / 2.
    Every cut carries its y exactly, so a whole disk gives pi r^2 to rounding.
    """

    def cut(t):
        return t, math.sqrt(max(0.0, (r - abs(t)) * (r + abs(t))))

    cuts = [cut(max(-c0, -r)), cut(min(1.0 - c0, r))]
    if cuts[1][0] <= cuts[0][0]:
        return 0.0
    for y in (abs(c1), abs(1.0 - c1)):
        if y < r:
            w = math.sqrt((r - y) * (r + y))
            cuts += [(t, y) for t in (-w, w) if cuts[0][0] < t < cuts[1][0]]
    cuts.sort()
    area = 0.0
    for (ta, ya), (tb, yb) in zip(cuts, cuts[1:]):
        # clip(c1 + y, 0, 1) and clip(c1 - y, 0, 1) as (constant, times y), read
        # at the midpoint against the thresholds the cuts used; a tie there is
        # a tangency at y = r and is sent to the case that holds on the piece
        y = cut(0.5 * (ta + tb))[1]
        top = (1.0, 0.0) if y > 1.0 - c1 else (c1, 1.0) if y > -c1 else (0.0, 0.0)
        bottom = (1.0, 0.0) if y <= c1 - 1.0 else (c1, -1.0) if y <= c1 else (0.0, 0.0)
        const, mult = top[0] - bottom[0], top[1] - bottom[1]
        prim = tb * yb - ta * ya + r * r * (math.atan2(tb, yb) - math.atan2(ta, ya))
        area += const * (tb - ta) + 0.5 * mult * prim
    return area


class ReferenceDistribution:
    """Base class: immutable reference distribution with oracles.

    Subclasses set ``kind``, ``ambient_dim``, ``analytic_voldim`` and
    ``support_bound`` (radius of a ball about 0 containing the support),
    and implement the sampling and integration primitives.
    """

    kind: str
    ambient_dim: int
    analytic_voldim: float
    support_bound: float

    # whether every oracle depends on x through ||x|| alone (see _fill)
    _rotation_invariant = False

    # accuracy targets for the certified quadrature routes
    _density_tol = 1e-8
    _ball_tol = 1e-4
    _moment_tol = 1e-6

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. points, deterministic given the 64-bit seed."""
        return self._sample(_whole(n, "n", 1), _whole(seed, "seed", 0))

    def _sample(self, n: int, seed: int) -> np.ndarray:
        raise NotImplementedError

    # -- the three oracle tables -------------------------------------------------

    def ball_prob(self, x, r: float) -> float:
        """P(B(x, r)) for the open Euclidean ball, as the 1x1 table."""
        return float(self.ball_prob_table([r], np.asarray(x, dtype=float)[None])[0, 0])

    def ball_prob_table(self, radii, X) -> np.ndarray:
        """P(B(x, r)) over a radius list and point rows; shape (len(r), len(X))."""
        _, radii, X = self._check_table(None, None, radii, X)

        def cell(x, r):
            p, err = self._ball_prob_impl(x, r)
            return min(max(p, 0.0), 1.0), err

        return self._fill([float(r) for r in radii], X, cell, self._ball_tol, "ball_prob", radial=True)

    def _ball_prob_impl(self, x: np.ndarray, r: float) -> tuple[float, float]:
        raise NotImplementedError

    def smoothed_density(self, kernel: Kernel, h: float, x) -> float:
        """p_h(x) = E[(1/h^d) K((x - X)/h)]."""
        return self.smoothed_derivative(kernel, None, h, x)

    def smoothed_derivative(self, kernel: Kernel, s, h: float, x) -> float:
        """D^s p_h(x) = E[(1/h^(d+|s|)) D^s K((x - X)/h)], as the 1x1 table."""
        return float(self.smoothed_derivative_table(kernel, s, [h], np.asarray(x, dtype=float)[None])[0, 0])

    def smoothed_density_table(self, kernel: Kernel, h_values, X) -> np.ndarray:
        """p_h(x) over a bandwidth list and point rows; shape (len(h), len(X))."""
        return self.smoothed_derivative_table(kernel, None, h_values, X)

    def smoothed_derivative_table(self, kernel: Kernel, s, h_values, X) -> np.ndarray:
        """D^s p_h(x) over a bandwidth list and point rows; shape (len(h), len(X)).

        s = None (or zero) gives p_h.  Every kind has a table for the Gaussian,
        the one kernel with derivatives; the other kernels' p_h cells are
        filled by certified quadrature.
        """
        s, h_values, X = self._check_table(kernel, s, h_values, X)
        table = self._table(kernel, s, h_values, X)
        if table is not None:
            return table
        d = self.ambient_dim
        rows = [lambda rr, h=float(h), scale=float(h) ** d: kernel.radial(rr / h) / scale for h in h_values]
        return self._fill(rows, X, self._expect_radial, self._density_tol, "smoothed_density", radial=True)

    def moment_k(self, kernel: Kernel, x, h: float, k: float, s=None) -> float:
        """E[ |D^s K((x - X)/h)|^k ], as the 1x1 table."""
        return float(self.moment_table(kernel, s, [h], np.asarray(x, dtype=float)[None], k)[0, 0])

    def moment_table(self, kernel: Kernel, s, h_values, X, k: float) -> np.ndarray:
        """E[ |D^s K((x - X)/h)|^k ] over a bandwidth list and point rows; shape (len(h), len(X)).

        A Gaussian moment is the sum of b_t h^(d+|t|) D^t p_(h/sqrt(k)) tables
        of _gaussian_moment_terms; with s != 0 it needs an even integer k,
        except on the cube and on point masses, whose _moment_table covers
        the other k.  Cells without an exact route are filled by
        certified quadrature to a relative accuracy.  A cell whose error is
        within the absolute accuracy the quadrature is asked for is certified
        too, so a negligible moment does not fail the table.
        """
        if not k > 0:
            raise ValueError("k must be positive")
        s, h_values, X = self._check_table(kernel, s, h_values, X)
        table = self._moment_table(kernel, s, h_values, X, k)
        if table is not None:
            return table
        if kernel.form == "gaussian":
            # a sum of exact D^t p_(h/sqrt(k)) tables: the one t = 0 term at s = 0
            if not s.is_zero() and k % 2 != 0:
                raise ValueError(f"the {self.kind} Gaussian moment with s != 0 needs an even integer k, got {k}")
            terms, hs = _gaussian_moment_terms(s.orders, k), h_values / math.sqrt(k)
            return sum((b * h_values ** (s.dim + t.order))[:, None] * self._table(kernel, t, hs, X) for t, b in terms)

        rows = [lambda rr, h=float(h): kernel.radial(rr / h) ** k for h in h_values]
        return self._fill(rows, X, self._expect_radial, self._moment_tol, "moment_k", _EPSABS / self._moment_tol, radial=True)

    # -- geometry hooks --------------------------------------------------------

    def special_points(self) -> np.ndarray:
        """Candidate supremum locations (atoms, density singularities)."""
        return np.zeros((0, self.ambient_dim))

    def lattice(self, target_size: int) -> tuple[np.ndarray, float]:
        """(points on the support, covering radius of the point set)."""
        raise NotImplementedError

    @property
    def support_diameter(self) -> float:
        return 2.0 * self.support_bound

    # -- shared plumbing ---------------------------------------------------

    def _check_table(self, kernel, s, values, X) -> tuple[MultiIndex | None, np.ndarray, np.ndarray]:
        """Validated (s, values, X) of a table call.

        values are bandwidths (with a kernel of the ambient dimension, which
        must support the derivative order s) or radii (kernel None); all must
        be positive, and X must hold points of the ambient dimension as rows.
        """
        if kernel is not None:
            if kernel.dim != self.ambient_dim:
                raise ValueError(f"kernel dimension {kernel.dim} != ambient dimension {self.ambient_dim}")
            s = kernel.derivative_index(s)
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.ndim != 1 or not np.all(values > 0):
            raise ValueError(f"{'bandwidths h' if kernel is not None else 'radii r'} must be positive")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.ambient_dim:
            raise ValueError(f"points have shape {X.shape}, expected (m, {self.ambient_dim})")
        return s, values, X

    def _fill(self, rows, X, cell, tol, what, floor=1.0, radial=False) -> np.ndarray:
        """Table whose (i, j) entry is the value of cell(X[j], rows[i]) -> (value, error).

        Each error must stay within tol * max(|value|, floor); otherwise
        QuadratureError is raised.  A radial cell reads x only through
        m = float(np.linalg.norm(x)).  On a rotation-invariant distribution
        such a cell is computed once per distinct m, at the first point that
        has it, and copied to the other points: the key is the expression the
        cell evaluates, so every entry keeps the bits of its 1x1 table.
        """
        keys = [float(np.linalg.norm(x)) for x in X] if radial and self._rotation_invariant else range(X.shape[0])
        first: dict = {}  # key -> its first point
        for j, key in enumerate(keys):
            first.setdefault(key, j)
        out = np.empty((len(rows), len(first)))
        for i, row in enumerate(rows):
            for c, j in enumerate(first.values()):
                val, err = cell(X[j], row)
                if err > tol * max(abs(val), floor):
                    raise QuadratureError(f"{what} quadrature error {err:.2e} exceeds target")
                out[i, c] = val
        slot = {key: c for c, key in enumerate(first)}
        return out[:, [slot[key] for key in keys]]

    # exact routes; subclasses return None when none applies
    def _table(self, kernel, s, h_values, X):
        """Exact D^s p_h table for validated inputs, or None."""
        return None

    def _moment_table(self, kernel, s, h_values, X, k):
        """Exact moment table for validated inputs, or None."""
        return None

    def _expect_radial(self, x: np.ndarray, g) -> tuple[float, float]:
        """(E[g(||x - X||)], error bound); g maps a float distance to a float."""
        raise NotImplementedError


def _sphere_average(x, rho: float, q: int, g) -> tuple[float, float]:
    """(average of g(||x - y||) over y on the sphere of radius rho about 0 in R^(q+1), error bound).

    The integrand is reduced to the polar angle; q = 0 is the pair of points
    -rho and rho on the line.
    """
    m = float(np.linalg.norm(x))
    if m < _TINY:
        return float(g(rho)), 0.0
    if q == 0:
        return 0.5 * (float(g(abs(m - rho))) + float(g(m + rho))), 0.0
    Z = math.sqrt(math.pi) * math.gamma(q / 2.0) / math.gamma((q + 1) / 2.0)  # int_0^pi sin^(q-1)

    def ang(theta):
        dist = math.sqrt(max(0.0, m * m + rho * rho - 2.0 * m * rho * math.cos(theta)))
        w = math.sin(theta) ** (q - 1) if q > 1 else 1.0
        return float(g(dist)) * w

    v, e = _quad(ang, 0.0, math.pi)
    return v / Z, e / Z


def _gauss_sphere(x, h: float, s: MultiIndex):
    """rho -> D^s p_h(x) for the Gaussian kernel and the uniform law on the sphere of radius rho about 0.

    With m = ||x||, z = m rho / h^2 and nu = d/2 - 1, the sphere average of
    exp(z cos theta) is Gamma(nu+1) (2/z)^nu I_nu(z) (DLMF 10.32), so
    p_h(x) = g(m^2/2) with g(w) = C exp(-w/h^2) z^-nu I_nu(z).  As d/dw is
    (rho^2/h^4) (1/z) d/dz and (1/z) d/dz [z^-nu I_nu] = z^-(nu+1) I_(nu+1)
    (DLMF 10.29.4), g^(n) is C exp(-w/h^2) times the sum over j of
    binom(n, j) (-1/h^2)^(n-j) (rho^2/h^4)^j z^-(nu+j) I_(nu+j)(z).  By the
    chain rule D^s p_h sums the monomials c x^e of D^s K
    (_gaussian_deriv_monomials), each weighted by |c| g^((|s|+|e|)/2).

    at(rho) returns (value, error).  The j-terms are of size p_h / h^(2j)
    and cancel to a value of size p_h / h^|s|, so the error is a few ulps of
    the sum of their magnitudes; and far from the sphere the rounding of
    the exponent y = (m - rho)^2 / (2 h^2), of z and of m moves the whole
    value by (y + z + m |m - rho| / h^2) ulps.
    """
    d, h2 = len(x), h * h
    nu = d / 2.0 - 1.0
    m = float(np.linalg.norm(x))
    m = m if m >= _TINY else 0.0
    # 2 pi h h in this association and factors of exactly 1.0 at nu = 0: the 2-D ball goldens hold these bits
    c = 1.0 / (2.0 * math.pi * h * h) ** (d / 2.0) * math.gamma(nu + 1.0) * 2.0**nu
    b = [0.0] * (s.order + 1)  # b[j] multiplies (rho^2/h^4)^j z^-(nu+j) I_(nu+j)(z)
    for e, coef in _gaussian_deriv_monomials(s.orders):
        n = (s.order + sum(e)) // 2  # the monomial multiplies g^(n)
        w = abs(coef) * math.prod(float(v) ** k for v, k in zip(x, e))
        for j in range(n + 1):
            b[j] += w * math.comb(n, j) * (-1.0 / h2) ** (n - j)
    # per j: b[j], j, the Bessel order nu + j and the limit of z^-(nu+j) I_(nu+j) at 0
    terms = [(bj, j, nu + j, 1.0 / (2.0 ** (nu + j) * math.gamma(nu + j + 1.0))) for j, bj in enumerate(b)]
    h4, m_h2, ive = h2 * h2, m / h2, scipy.special.ive

    def at(rho):
        z = m * rho / h2
        r = rho * rho / h4
        total = size = 0.0
        for bj, j, order, limit in terms:
            t = bj * r**j * (float(ive(order, z)) * z**-order if z > 0.0 else limit)
            total += t
            size += abs(t)
        y = 0.5 * (m - rho) ** 2 / h2
        g = math.exp(-y)
        return c * total * g, c * g * (_SUM_ULPS * size + _EPS * (y + z + m_h2 * abs(m - rho)) * abs(total))

    return at


class _SphereMixture(ReferenceDistribution):
    """X = rho U, U uniform on the unit sphere.

    _radial_pushforward(inner), for inner(rho) -> (value, error), gives
    (E[value(rho)], error): its own quadrature error plus the largest inner
    error.
    """

    _rotation_invariant = True

    def _table(self, kernel, s, h_values, X):
        if kernel.form != "gaussian":
            return None

        def cell(x, h):
            return self._radial_pushforward(_gauss_sphere(x, h, s))

        what = "smoothed_density" if s.is_zero() else "smoothed_derivative"
        return self._fill([float(h) for h in h_values], X, cell, self._density_tol, what, radial=s.is_zero())

    def _moment_table(self, kernel, s, h_values, X, k):
        # a Gaussian moment with s != 0 and even k sums the closed forms of its
        # D^t p_(h/sqrt(k)) terms per radius and is certified once: a D^t p
        # cell alone can claim more error than the density target allows
        if kernel.form != "gaussian" or s.is_zero() or k % 2 != 0:
            return None
        terms = _gaussian_moment_terms(s.orders, k)

        def cell(x, h):
            closed = [(b * h ** (s.dim + t.order), _gauss_sphere(x, h / math.sqrt(k), t)) for t, b in terms]

            def inner(rho):  # the sum's own rounding adds a few ulps of each term
                vals = [(coef, *at(rho)) for coef, at in closed]
                return sum(c * v for c, v, _ in vals), sum(abs(c) * (e + _SUM_ULPS * abs(v)) for c, v, e in vals)

            return self._radial_pushforward(inner)

        return self._fill([float(h) for h in h_values], X, cell, self._moment_tol, "moment_k", _EPSABS / self._moment_tol)

    def _expect_radial(self, x, g):
        q = self.ambient_dim - 1
        return self._radial_pushforward(lambda rho: _sphere_average(x, rho, q, g))


class UniformCube(ReferenceDistribution):
    """Uniform distribution on the unit cube [0, 1]^d."""

    def __init__(self, dim: int):
        self.kind = "uniform_cube"
        self.ambient_dim = _whole(dim, "dim", 1)
        self.analytic_voldim = float(self.ambient_dim)
        self.support_bound = math.sqrt(self.ambient_dim)

    @property
    def support_diameter(self) -> float:
        return math.sqrt(self.ambient_dim)

    def _sample(self, n, seed):
        return _rng(seed).random((n, self.ambient_dim))

    def _ball_prob_impl(self, x, r):
        # volume of B(x, r) intersected with the cube: an interval in 1-D, the
        # closed-form disk in a square in 2-D, and slices down to 2-D above
        def vol(center, radius):
            if len(center) == 2:
                return _disk_square_area(center[0], center[1], radius), 0.0
            lo = max(0.0, center[0] - radius)
            hi = min(1.0, center[0] + radius)
            if len(center) == 1 or hi <= lo:
                return max(0.0, hi - lo), 0.0

            def slice_vol(u):
                return vol(center[1:], math.sqrt(max(0.0, radius * radius - (u - center[0]) ** 2)))

            # a slice's volume has a kink where its sphere reaches a face of the cube
            faces = itertools.product(*[(0.0, c, 1.0 - c) for c in center[1:]])
            w = [math.sqrt(radius * radius - t) for t in {sum(v * v for v in o) for o in faces} if t < radius * radius]
            kinks = sorted(u for v in w for u in (center[0] - v, center[0] + v) if lo < u < hi)
            return _quad_nested(slice_vol, lo, hi, points=kinks or None)

        return vol(tuple(float(v) for v in x), r)

    def _table(self, kernel, s, h_values, X):
        # the Gaussian factorises over coordinates on a product domain
        if kernel.form != "gaussian":
            return None
        ndtr = scipy.special.ndtr
        out = np.empty((h_values.size, X.shape[0]))
        for i, h in enumerate(h_values):
            acc = np.ones(X.shape[0])
            for j, k in enumerate(s.orders):
                t = X[:, j]
                if k == 0:
                    acc = acc * (ndtr(t / h) - ndtr((t - 1.0) / h))
                else:
                    acc = acc * (_phi_deriv(k - 1, t / h) - _phi_deriv(k - 1, (t - 1.0) / h)) / h**k
            out[i] = acc
        return out

    def _moment_table(self, kernel, s, h_values, X, k):
        # a Gaussian moment with s != 0 and k not an even integer: |D^s K|^k
        # factorises, and coordinate j gives h times the integral of
        # |phi^(s_j)(u)|^k over u = (x_j - y)/h in [(x_j - 1)/h, x_j/h], clipped
        # where exp(-k u^2/2) < e^-750 outweighs |He_(s_j)(u)|^k, broken at u = 0
        if kernel.form != "gaussian" or s.is_zero() or k % 2 == 0:
            return None
        norm = (2.0 * math.pi) ** (-k / 2.0)
        # per coordinate: the cut-off, and phi^(o) as the sum of c u^e phi over its monomials
        axes = [(2.0 * o + math.sqrt(1500.0 / k), _gaussian_deriv_monomials((o,))) for o in s.orders]

        def cell(x, h):
            val = bound = 1.0  # the product, and the product of the factors' value + error
            for (cut, mono), t in zip(axes, x):
                f = lambda u: abs(sum(c * u**e for (e,), c in mono)) ** k * math.exp(-0.5 * k * u * u) * norm
                a, b = max((t - 1.0) / h, -cut), min(t / h, cut)
                v, e = _quad(f, a, b, points=[0.0] if a < 0.0 < b else None) if a < b else (0.0, 0.0)
                val *= h * v
                bound *= h * (v + e)
            return val, bound - val

        return self._fill([float(h) for h in h_values], X, cell, self._moment_tol, "moment_k", _EPSABS / self._moment_tol)

    def _expect_radial(self, x, g):
        # the distance is the one np.linalg.norm forms: |a| in 1-D, sqrt(a*a + b*b) in 2-D
        d = self.ambient_dim
        if d == 1:
            x0 = float(x[0])
            return _quad(lambda y: g(abs(x0 - y)), 0.0, 1.0)
        if d == 2:
            x0, x1 = float(x[0]), float(x[1])

            def outer(y1):
                a2 = (x0 - y1) * (x0 - y1)

                def inner(y2):
                    b = x1 - y2
                    return g(math.sqrt(a2 + b * b))

                return _quad(inner, 0.0, 1.0)

            return _quad_nested(outer, 0.0, 1.0)
        raise NotImplementedError("cube quadrature is implemented for d <= 2")

    def special_points(self):
        return np.full((1, self.ambient_dim), 0.5)

    def lattice(self, target_size):
        d = self.ambient_dim
        k = max(2, round(target_size ** (1.0 / d)))
        axes = [np.linspace(0.0, 1.0, k)] * d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        covering = (1.0 / (k - 1)) * math.sqrt(d) / 2.0
        return pts, covering


class UnboundedBall(_SphereMixture):
    """Distribution on the unit ball of R^d with density proportional to ||x||^(-beta).

    P(B(0, r)) = r^(d - beta) for r <= 1, so the volume dimension is d - beta.
    """

    def __init__(self, dim: int, beta: float):
        self.kind = "unbounded_ball"
        self.ambient_dim = _whole(dim, "dim", 1)
        self.beta = float(beta)
        if not 0.0 < self.beta < self.ambient_dim:
            raise ValueError("beta must lie in (0, dim)")
        self.analytic_voldim = self.ambient_dim - self.beta
        self.support_bound = 1.0

    def _sample(self, n, seed):
        d = self.ambient_dim
        rng = _rng(seed)
        radii = rng.random(n) ** (1.0 / (d - self.beta))
        dirs = rng.standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return radii[:, None] * dirs

    def _radial_pushforward(self, inner) -> tuple[float, float]:
        # E[inner(rho)] for rho = ||X||: substitute u = rho^(d-beta), u ~ U(0,1)
        a = self.ambient_dim - self.beta
        return _quad_nested(lambda u: inner(u ** (1.0 / a)), 0.0, 1.0)

    def _ball_prob_impl(self, x, r):
        # the shells rho < r - m lie inside B(x, r) whole and those with
        # |rho - m| >= r miss it, so only the rest are integrated, in u = rho^a
        m = float(np.linalg.norm(x))
        a = self.ambient_dim - self.beta
        inside = min(max(r - m, 0.0), 1.0) ** a
        lo, hi = abs(m - r) ** a, min(m + r, 1.0) ** a
        if hi <= lo:
            return inside, 0.0
        q = self.ambient_dim - 1

        def frac(u):
            rho = u ** (1.0 / a)
            return cap_fraction((m * m + rho * rho - r * r) / (2.0 * m * rho), q)

        v, e = _quad(frac, lo, hi)
        return inside + v, e

    def special_points(self):
        d = self.ambient_dim
        pts = [np.zeros(d)]
        for rr in (0.02, 0.05, 0.1, 0.2, 0.4):
            p = np.zeros(d)
            p[0] = rr
            pts.append(p)
        return np.asarray(pts)

    def lattice(self, target_size):
        d = self.ambient_dim
        k = max(2, round((target_size / (unit_ball_volume(d) / 2.0**d)) ** (1.0 / d)))
        axes = [np.linspace(-1.0, 1.0, k)] * d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        covering = (2.0 / (k - 1)) * math.sqrt(d) / 2.0
        return pts, covering


class UniformSphere(_SphereMixture):
    """Uniform distribution on the sphere of dimension d_M embedded in R^(d_M+1)."""

    def __init__(self, manifold_dim: int, radius: float = 1.0):
        self.kind = "uniform_sphere"
        self.manifold_dim = _whole(manifold_dim, "manifold_dim", 1)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.ambient_dim = self.manifold_dim + 1
        self.analytic_voldim = float(self.manifold_dim)
        self.support_bound = self.radius

    def _sample(self, n, seed):
        g = _rng(seed).standard_normal((n, self.ambient_dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return self.radius * g

    def _ball_prob_impl(self, x, r):
        m = float(np.linalg.norm(x))
        rho = self.radius
        if m < _TINY:
            return (1.0 if rho < r else 0.0), 0.0
        c = (m * m + rho * rho - r * r) / (2.0 * m * rho)
        return cap_fraction(c, self.manifold_dim), 0.0

    def _radial_pushforward(self, inner):
        return inner(self.radius)

    def special_points(self):
        p = np.zeros(self.ambient_dim)
        p[0] = self.radius
        return p.reshape(1, -1)

    def lattice(self, target_size):
        if self.manifold_dim > 2:
            raise ValueError(f"the uniform_sphere lattice is implemented for manifold_dim <= 2, got {self.manifold_dim}")
        rho = self.radius
        if self.manifold_dim == 1:
            k = max(4, int(target_size))
            theta = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
            pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            covering = 2.0 * rho * math.sin(math.pi / (2.0 * k))
            return pts, covering
        # Fibonacci lattice on S^2
        k = max(8, int(target_size))
        i = np.arange(k)
        z = 1.0 - 2.0 * (i + 0.5) / k
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(1.0 - z * z)
        pts = rho * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
        covering = 2.0 * rho * math.sqrt(math.pi / k)
        return pts, covering


class UniformCircle(UniformSphere):
    """Uniform distribution on the circle of given radius in R^2."""

    def __init__(self, radius: float = 1.0):
        super().__init__(1, radius)
        self.kind = "uniform_circle"


class PointMasses(ReferenceDistribution):
    """Finitely many atoms with positive weights summing to 1."""

    def __init__(self, locations, weights=None):
        locations = np.atleast_2d(np.asarray(locations, dtype=float))
        if weights is None:
            weights = np.full(locations.shape[0], 1.0 / locations.shape[0])
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (locations.shape[0],):
            raise ValueError("weights must match the number of locations")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        self.kind = "point_masses"
        self.locations = locations
        self.weights = weights
        self.ambient_dim = locations.shape[1]
        self.analytic_voldim = 0.0
        self.support_bound = float(np.linalg.norm(locations, axis=1).max())

    @property
    def support_diameter(self) -> float:
        if self.locations.shape[0] == 1:
            return 0.0
        diff = self.locations[:, None, :] - self.locations[None, :, :]
        return float(np.linalg.norm(diff, axis=-1).max())

    def _sample(self, n, seed):
        idx = _rng(seed).choice(self.locations.shape[0], size=n, p=self.weights)
        return self.locations[idx]

    def _ball_prob_impl(self, x, r):
        inside = np.linalg.norm(self.locations - x, axis=1) < r
        return float(self.weights[inside].sum()), 0.0

    # the atoms are summed in one fixed order, so a cell does not depend on the table size
    def _table(self, kernel, s, h_values, X):
        d = self.ambient_dim
        diff = X[:, None, :] - self.locations[None, :, :]
        out = np.empty((h_values.size, X.shape[0]))
        for i, h in enumerate(h_values):
            out[i] = (kernel.deriv_eval_many(s, diff / h) * self.weights).sum(axis=-1) / h ** (d + s.order)
        return out

    def _moment_table(self, kernel, s, h_values, X, k):
        diff = X[:, None, :] - self.locations[None, :, :]
        out = np.empty((h_values.size, X.shape[0]))
        for i, h in enumerate(h_values):
            out[i] = (np.abs(kernel.deriv_eval_many(s, diff / h)) ** k * self.weights).sum(axis=-1)
        return out

    def special_points(self):
        return self.locations.copy()

    def lattice(self, target_size):
        return self.locations.copy(), 0.0


class Mixture(ReferenceDistribution):
    """Finite mixture of reference distributions with weights in (0, 1)."""

    def __init__(self, components: Sequence[ReferenceDistribution], weights):
        if len(components) < 1:
            raise ValueError("mixture needs at least one component")
        dims = {c.ambient_dim for c in components}
        if len(dims) != 1:
            raise ValueError("mixture components must share the ambient dimension")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(components),):
            raise ValueError("weights must match the number of components")
        if np.any(weights <= 0) or (len(components) > 1 and np.any(weights >= 1)) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must lie in (0,1) and sum to 1")
        self.kind = "mixture"
        self.components = list(components)
        self.weights = weights
        self.ambient_dim = dims.pop()
        self.analytic_voldim = min(c.analytic_voldim for c in components)
        self.support_bound = max(c.support_bound for c in components)

    @property
    def support_diameter(self) -> float:
        # upper bound: bounding balls of the components
        own = max(c.support_diameter for c in self.components)
        cross = 2.0 * max(c.support_bound for c in self.components)
        return max(own, cross)

    def _child_seed(self, seed: int, i: int) -> int:
        return (int(seed) * 1000003 + 7919 * (i + 1)) % (2**63)

    def _sample(self, n, seed):
        rng = _rng(seed)
        counts = rng.multinomial(n, self.weights)
        parts = [
            c.sample(int(k), self._child_seed(seed, i))
            for i, (c, k) in enumerate(zip(self.components, counts))
            if k > 0
        ]
        pts = np.concatenate(parts, axis=0)
        return pts[rng.permutation(n)]

    def _ball_prob_impl(self, x, r):
        val, err = self._weighted(np.array(c._ball_prob_impl(x, r)) for c in self.components)
        return float(val), float(err)

    def _weighted(self, tables):
        acc = None
        for w, t in zip(self.weights, tables):
            acc = w * t if acc is None else acc + w * t
        return acc

    def _table(self, kernel, s, h_values, X):
        return self._weighted(c.smoothed_derivative_table(kernel, s, h_values, X) for c in self.components)

    def _moment_table(self, kernel, s, h_values, X, k):
        return self._weighted(c.moment_table(kernel, s, h_values, X, k) for c in self.components)

    def special_points(self):
        return np.concatenate([c.special_points() for c in self.components], axis=0)

    def lattice(self, target_size):
        parts = []
        covers = []
        for w, c in zip(self.weights, self.components):
            pts, cov = c.lattice(max(4, int(round(target_size * w))))
            parts.append(pts)
            covers.append(cov)
        return np.concatenate(parts, axis=0), max(covers)


# kind -> (its required parameters, its optional ones, its constructor)
_KINDS = {
    "uniform_cube": (("dim",), (), UniformCube),
    "unbounded_ball": (("dim", "beta"), (), UnboundedBall),
    "uniform_circle": ((), ("radius",), UniformCircle),
    "uniform_sphere": (("manifold_dim",), ("radius",), UniformSphere),
    "point_masses": (("locations",), ("weights",), PointMasses),
    "mixture": (
        ("components", "weights"),
        (),
        lambda components, weights: Mixture([distribution_from_config(c) for c in components], weights),
    ),
}


def distribution_from_config(cfg: dict) -> ReferenceDistribution:
    """Build a distribution from a config mapping {kind, ...parameters}.

    A missing or unknown kind, a missing parameter of the kind or a
    parameter the kind does not take raises ValueError.
    """
    cfg = dict(cfg)
    kind = str(cfg.pop("kind", "")).lower()
    if kind not in _KINDS:
        raise ValueError(f"distribution config needs a 'kind' from {sorted(_KINDS)}, got {kind!r}")
    required, optional, build = _KINDS[kind]
    _check_keys(f"distribution kind {kind!r}", cfg, required + optional, required)
    return build(**cfg)
