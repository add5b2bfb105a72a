# distributions.py
# Reference distributions with seeded samplers and exact (or certified
# high-accuracy) oracles for ball probabilities P(B(x,r)), smoothed
# densities p_h, smoothed derivatives D^s p_h, and k-moments of the kernel.
#
# Sampling uses the counter-based Philox 4x64 generator, so streams are
# reproducible across platforms for a given 64-bit seed.
#
# p_h and D^s p_h have one entry point, smoothed_derivative_table, which
# validates its inputs and returns the (bandwidth, point) table; a pointwise
# value is the 1x1 table.  Each distribution offers at most one table route,
# its _table hook, and returns None where it has none:
#   point masses        exact finite sums over the atoms
#   cube + Gaussian     products of 1-D normal CDF (or density-derivative)
#                       differences, exact
#   circle + Gaussian   p_h in closed form via the scaled Bessel I0
#   ball + Gaussian     p_h in 2-D as a certified 1-D quadrature of the
#                       Bessel I0 form over the radius
#   mixtures            the weighted sum of the component tables
# Every other cell is filled by low-dimensional quadrature over the manifold
# or radial parameter, with certified error.

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import betainc, ive, ndtr

from .kernels import Kernel, MultiIndex, QuadratureError, _phi_deriv, unit_ball_volume

__all__ = [
    "ReferenceDistribution",
    "UniformCube",
    "UnboundedBall",
    "UniformCircle",
    "UniformSphere",
    "PointMasses",
    "Mixture",
    "distribution_from_config",
    "write_sample_csv",
]

_TINY = 1e-14


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _quad(f, a, b, points=None, limit=200) -> tuple[float, float]:
    """scipy quad wrapped to return (value, abserr) without printing warnings."""
    out = integrate.quad(f, a, b, points=points, limit=limit, epsabs=1e-12, epsrel=1e-10, full_output=1)
    return float(out[0]), float(out[1])


def cap_fraction(cos_theta: float, sphere_dim: int) -> float:
    """Fraction of the unit sphere S^q within angle arccos(cos_theta) of a pole."""
    if cos_theta <= -1.0:
        return 1.0
    if cos_theta >= 1.0:
        return 0.0
    sin2 = max(0.0, 1.0 - cos_theta * cos_theta)
    half = 0.5 * betainc(sphere_dim / 2.0, 0.5, sin2)
    return half if cos_theta >= 0.0 else 1.0 - half


def _polar_weight_norm(q: int) -> float:
    """int_0^pi sin^(q-1) theta dtheta for the polar angle on S^q."""
    return math.sqrt(math.pi) * math.gamma(q / 2.0) / math.gamma((q + 1) / 2.0)


class ReferenceDistribution:
    """Base class: immutable reference distribution with oracles.

    Subclasses set ``kind``, ``ambient_dim``, ``analytic_voldim``,
    ``domain_radius`` (evaluation set X sits inside B(0, domain_radius)),
    ``support_bound`` (radius of a ball containing the support) and
    optionally ``reach``, and implement the sampling and integration
    primitives.
    """

    kind: str
    ambient_dim: int
    analytic_voldim: float
    domain_radius: float
    support_bound: float
    reach: float | None = None

    # accuracy targets for the certified quadrature routes
    _density_tol = 1e-8
    _ball_tol = 1e-4
    _moment_tol = 1e-6

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. points, deterministic given the 64-bit seed."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._sample(int(n), int(seed))

    def _sample(self, n: int, seed: int) -> np.ndarray:
        raise NotImplementedError

    # -- ball probability ---------------------------------------------------

    def ball_prob(self, x, r: float, return_error: bool = False):
        """P(B(x, r)) for the open Euclidean ball, with optional error bound."""
        if r <= 0:
            raise ValueError("r must be positive")
        x = self._check_point(x)
        p, err = self._ball_prob_impl(x, float(r))
        p = min(max(p, 0.0), 1.0)
        if err > self._ball_tol:
            raise QuadratureError(
                f"ball_prob accuracy target {self._ball_tol} unreachable (achieved {err:.2e})",
                estimate=p,
                error=err,
            )
        return (p, err) if return_error else p

    def _ball_prob_impl(self, x: np.ndarray, r: float) -> tuple[float, float]:
        raise NotImplementedError

    # -- smoothed density and derivatives -------------------------------------

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

        s = None (or zero) gives p_h.  Cells without an exact table route are
        filled by certified quadrature.
        """
        s = MultiIndex.coerce(s, self.ambient_dim)
        if s.order > kernel.deriv_support:
            raise ValueError(f"derivative order {s.order} unsupported by kernel {kernel.form}")
        h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
        if h_values.ndim != 1 or not np.all(h_values > 0):
            raise ValueError("bandwidths h must be positive")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.ambient_dim:
            raise ValueError(f"points have shape {X.shape}, expected (m, {self.ambient_dim})")
        table = self._table(kernel, s, h_values, X)
        if table is not None:
            return table
        what = "smoothed_density" if s.is_zero() else "smoothed_derivative"
        out = np.empty((h_values.size, X.shape[0]))
        for i, h in enumerate(h_values):
            h = float(h)
            scale = h ** (self.ambient_dim + s.order)
            for j, x in enumerate(X):
                if s.is_zero():
                    val, err = self._expect_radial(x, lambda rr: kernel.profile(np.asarray(rr) / h) / scale)
                else:
                    val, err = self._expect_vector(x, lambda V: kernel.deriv_eval_many(s, np.asarray(V) / h) / scale)
                self._certify(val, err, self._density_tol, what)
                out[i, j] = val
        return out

    def moment_k(self, kernel: Kernel, x, h: float, k: float, s=None) -> float:
        """E[ |D^s K((x - X)/h)|^k ]."""
        if k <= 0:
            raise ValueError("k must be positive")
        s = MultiIndex.coerce(s, self.ambient_dim)
        h = float(h)
        if h <= 0:
            raise ValueError("bandwidth h must be positive")
        x = self._check_point(x)
        if s.order > kernel.deriv_support:
            raise ValueError(f"derivative order {s.order} unsupported by kernel {kernel.form}")
        fast = self._moment_fast(kernel, x, h, k, s)
        if fast is not None:
            return fast
        if s.is_zero():
            if kernel.form == "gaussian":
                # |K|^k is a rescaled Gaussian: reuse the exact density routes.
                hp = h / math.sqrt(k)
                d = self.ambient_dim
                c = (2.0 * math.pi) ** (-d * (k - 1.0) / 2.0)
                return c * hp**d * self.smoothed_density(kernel, hp, x)

            def g(rr):
                return kernel.profile(np.asarray(rr) / h) ** k

            val, err = self._expect_radial(x, g)
        else:

            def f(V):
                return np.abs(kernel.deriv_eval_many(s, np.asarray(V) / h)) ** k

            val, err = self._expect_vector(x, f)
        self._certify(val, err, self._moment_tol, "moment_k", relative=True)
        return val

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

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 and self.ambient_dim == 1:
            x = x.reshape(1)
        if x.shape != (self.ambient_dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.ambient_dim},)")
        return x

    @staticmethod
    def _certify(val, err, tol, what, relative=False):
        bound = tol * max(abs(val), 1.0) if not relative else tol * max(abs(val), 1e-300)
        if err > bound:
            raise QuadratureError(f"{what} quadrature error {err:.2e} exceeds target", estimate=val, error=err)

    # exact routes; subclasses return None when none applies
    def _table(self, kernel, s, h_values, X):
        """Exact D^s p_h table for validated inputs, or None."""
        return None

    def _moment_fast(self, kernel, x, h, k, s):
        return None

    def _expect_radial(self, x: np.ndarray, g) -> tuple[float, float]:
        """(E[g(||x - X||)], error bound)."""
        raise NotImplementedError

    def _expect_vector(self, x: np.ndarray, f) -> tuple[float, float]:
        """(E[f(x - X)], error bound); f acts on rows."""
        raise NotImplementedError


def _f1(f):
    """Adapt a row-wise vector function to a scalar 1-D argument."""

    def wrapped(v):
        return float(f(np.asarray([v], dtype=float).reshape(1, -1))[0])

    return wrapped


class UniformCube(ReferenceDistribution):
    """Uniform distribution on the unit cube [0, 1]^d."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.kind = "uniform_cube"
        self.ambient_dim = int(dim)
        self.analytic_voldim = float(dim)
        self.support_bound = math.sqrt(dim)
        self.domain_radius = math.sqrt(dim)

    @property
    def support_diameter(self) -> float:
        return math.sqrt(self.ambient_dim)

    def _sample(self, n, seed):
        return _rng(seed).random((n, self.ambient_dim))

    def _ball_prob_impl(self, x, r):
        # volume of B(x, r) intersected with the cube, by slicing recursion
        def vol(center, radius, k):
            if radius <= 0:
                return 0.0, 0.0
            if k == 1:
                lo = max(0.0, center[0] - radius)
                hi = min(1.0, center[0] + radius)
                return max(0.0, hi - lo), 0.0
            lo = max(0.0, center[0] - radius)
            hi = min(1.0, center[0] + radius)
            if hi <= lo:
                return 0.0, 0.0
            errs = []

            def slice_vol(u):
                rad = math.sqrt(max(0.0, radius * radius - (u - center[0]) ** 2))
                v, e = vol(center[1:], rad, k - 1)
                errs.append(e)
                return v

            v, e = _quad(slice_vol, lo, hi)
            return v, e + (max(errs) if errs else 0.0) * (hi - lo)

        return vol(x, r, self.ambient_dim)

    def _table(self, kernel, s, h_values, X):
        # the Gaussian factorises over coordinates on a product domain
        if kernel.form != "gaussian":
            return None
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

    def _moment_fast(self, kernel, x, h, k, s):
        if kernel.form != "gaussian" or s.is_zero():
            return None
        # |D^s K|^k factorizes over coordinates on a product domain
        val = 1.0
        err = 0.0
        for order, t in zip(s.orders, x):
            v, e = _quad(lambda y, o=order, tt=t: abs(float(_phi_deriv(o, (tt - y) / h))) ** k, 0.0, 1.0)
            err = err + e
            val *= v
        return val

    def _expect_vector(self, x, f):
        d = self.ambient_dim
        if d == 1:
            return _quad(lambda y: _f1(f)(x[0] - y), 0.0, 1.0)
        if d == 2:
            inner_err = []

            def outer(y1):
                v, e = _quad(lambda y2: float(f(np.array([[x[0] - y1, x[1] - y2]]))[0]), 0.0, 1.0)
                inner_err.append(e)
                return v

            v, e = _quad(outer, 0.0, 1.0)
            return v, e + (max(inner_err) if inner_err else 0.0)
        raise NotImplementedError("cube quadrature for non-radial integrands is implemented for d <= 2")

    def _expect_radial(self, x, g):
        return self._expect_vector(x, lambda V: g(np.linalg.norm(V, axis=-1)))

    def special_points(self):
        return np.full((1, self.ambient_dim), 0.5)

    def lattice(self, target_size):
        d = self.ambient_dim
        k = max(2, round(target_size ** (1.0 / d)))
        axes = [np.linspace(0.0, 1.0, k)] * d
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        covering = (1.0 / (k - 1)) * math.sqrt(d) / 2.0
        return pts, covering


class UnboundedBall(ReferenceDistribution):
    """Distribution on the unit ball of R^d with density proportional to ||x||^(-beta).

    P(B(0, r)) = r^(d - beta) for r <= 1, so the volume dimension is d - beta.
    """

    def __init__(self, dim: int, beta: float):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < beta < dim:
            raise ValueError("beta must lie in (0, dim)")
        self.kind = "unbounded_ball"
        self.ambient_dim = int(dim)
        self.beta = float(beta)
        self.analytic_voldim = dim - beta
        self.support_bound = 1.0
        self.domain_radius = 2.0

    @property
    def support_diameter(self) -> float:
        return 2.0

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
        return _quad(lambda u: inner(u ** (1.0 / a)), 0.0, 1.0)

    def _ball_prob_impl(self, x, r):
        m = float(np.linalg.norm(x))
        if m < _TINY:
            return min(r, 1.0) ** (self.ambient_dim - self.beta), 0.0
        if r >= m + 1.0:
            return 1.0, 0.0
        q = self.ambient_dim - 1

        def frac(rho):
            if rho < _TINY:
                return 1.0 if m < r else 0.0
            c = (m * m + rho * rho - r * r) / (2.0 * m * rho)
            return cap_fraction(c, q)

        return self._radial_pushforward(frac)

    def _table(self, kernel, s, h_values, X):
        if kernel.form != "gaussian" or self.ambient_dim != 2 or not s.is_zero():
            return None
        out = np.empty((h_values.size, X.shape[0]))
        for i, h in enumerate(h_values):
            h = float(h)
            c = 1.0 / (2.0 * math.pi * h * h)
            for j, x in enumerate(X):
                m = float(np.linalg.norm(x))

                def inner(rho):
                    if m < _TINY:
                        return c * math.exp(-0.5 * rho * rho / (h * h))
                    z = m * rho / (h * h)
                    return c * float(ive(0, z)) * math.exp(-0.5 * (m - rho) ** 2 / (h * h))

                val, err = self._radial_pushforward(inner)
                self._certify(val, err, self._density_tol, "smoothed_density")
                out[i, j] = val
        return out

    def _expect_radial(self, x, g):
        m = float(np.linalg.norm(x))
        if m < _TINY:
            return self._radial_pushforward(lambda rho: float(np.asarray(g(rho))))
        q = self.ambient_dim - 1
        if q == 0:
            return self._radial_pushforward(lambda rho: 0.5 * (float(g(abs(m - rho))) + float(g(m + rho))))
        Z = _polar_weight_norm(q)
        inner_errs = []

        def inner(rho):
            def ang(theta):
                dist = math.sqrt(max(0.0, m * m + rho * rho - 2.0 * m * rho * math.cos(theta)))
                w = math.sin(theta) ** (q - 1) if q > 1 else 1.0
                return float(g(dist)) * w

            v, e = _quad(ang, 0.0, math.pi)
            inner_errs.append(e)
            return v / Z

        val, err = self._radial_pushforward(inner)
        return val, err + (max(inner_errs) / Z if inner_errs else 0.0)

    def _expect_vector(self, x, f):
        d = self.ambient_dim
        if d == 1:
            fs = _f1(f)
            return self._radial_pushforward(lambda rho: 0.5 * (fs(x[0] - rho) + fs(x[0] + rho)))
        if d == 2:
            inner_errs = []

            def inner(rho):
                def ang(theta):
                    return float(f(np.array([[x[0] - rho * math.cos(theta), x[1] - rho * math.sin(theta)]]))[0])

                v, e = _quad(ang, 0.0, 2.0 * math.pi)
                inner_errs.append(e)
                return v / (2.0 * math.pi)

            val, err = self._radial_pushforward(inner)
            return val, err + (max(inner_errs) / (2 * math.pi) if inner_errs else 0.0)
        raise NotImplementedError("ball quadrature for non-radial integrands is implemented for d <= 2")

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


class UniformSphere(ReferenceDistribution):
    """Uniform distribution on the sphere of dimension d_M embedded in R^(d_M+1)."""

    def __init__(self, manifold_dim: int, radius: float = 1.0):
        if manifold_dim < 1:
            raise ValueError("manifold_dim must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.kind = "uniform_sphere"
        self.manifold_dim = int(manifold_dim)
        self.radius = float(radius)
        self.ambient_dim = self.manifold_dim + 1
        self.analytic_voldim = float(manifold_dim)
        self.support_bound = self.radius
        self.domain_radius = self.radius
        self.reach = self.radius

    @property
    def support_diameter(self) -> float:
        return 2.0 * self.radius

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

    def _table(self, kernel, s, h_values, X):
        if kernel.form != "gaussian" or self.manifold_dim != 1 or not s.is_zero():
            return None
        m = np.linalg.norm(X, axis=1)
        rho = self.radius
        out = np.empty((h_values.size, X.shape[0]))
        for i, h in enumerate(h_values):
            z = m * rho / (h * h)
            out[i] = ive(0, z) * np.exp(-0.5 * (m - rho) ** 2 / (h * h)) / (2.0 * math.pi * h * h)
        return out

    def _expect_radial(self, x, g):
        m = float(np.linalg.norm(x))
        rho = self.radius
        q = self.manifold_dim
        if m < _TINY:
            return float(g(rho)), 0.0
        Z = _polar_weight_norm(q)

        def ang(theta):
            dist = math.sqrt(max(0.0, m * m + rho * rho - 2.0 * m * rho * math.cos(theta)))
            w = math.sin(theta) ** (q - 1) if q > 1 else 1.0
            return float(g(dist)) * w

        v, e = _quad(ang, 0.0, math.pi)
        return v / Z, e / Z

    def _expect_vector(self, x, f):
        rho = self.radius
        if self.manifold_dim == 1:
            def ang(theta):
                return float(f(np.array([[x[0] - rho * math.cos(theta), x[1] - rho * math.sin(theta)]]))[0])

            v, e = _quad(ang, 0.0, 2.0 * math.pi)
            return v / (2.0 * math.pi), e / (2.0 * math.pi)
        if self.manifold_dim == 2:
            inner_errs = []

            def outer(theta):
                def az(phi):
                    y = rho * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
                    return float(f((x - y).reshape(1, -1))[0])

                v, e = _quad(az, 0.0, 2.0 * math.pi)
                inner_errs.append(e)
                return v * math.sin(theta)

            v, e = _quad(outer, 0.0, math.pi)
            scale = 4.0 * math.pi
            return v / scale, (e + (max(inner_errs) if inner_errs else 0.0)) / scale
        raise NotImplementedError("sphere quadrature for non-radial integrands is implemented for d_M <= 2")

    def special_points(self):
        p = np.zeros(self.ambient_dim)
        p[0] = self.radius
        return p.reshape(1, -1)

    def lattice(self, target_size):
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

    def _ball_prob_impl(self, x, r):
        # arc-length fraction, exact
        m = float(np.linalg.norm(x))
        rho = self.radius
        if m < _TINY:
            return (1.0 if rho < r else 0.0), 0.0
        c = (m * m + rho * rho - r * r) / (2.0 * m * rho)
        if c <= -1.0:
            return 1.0, 0.0
        if c >= 1.0:
            return 0.0, 0.0
        return math.acos(c) / math.pi, 0.0


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
        norms = np.linalg.norm(locations, axis=1)
        self.support_bound = float(norms.max())
        self.domain_radius = max(float(norms.max()), 1.0)

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

    def _moment_fast(self, kernel, x, h, k, s):
        vals = np.abs(kernel.deriv_eval_many(s, (x - self.locations) / h)) ** k
        return float(np.dot(self.weights, vals))

    def _table(self, kernel, s, h_values, X):
        d = self.ambient_dim
        diff = X[:, None, :] - self.locations[None, :, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        out = np.empty((h_values.size, X.shape[0]))
        for i, h in enumerate(h_values):
            vals = kernel.profile(r / h) if s.is_zero() else kernel.deriv_eval_many(s, diff / h)
            out[i] = vals @ self.weights / h ** (d + s.order)
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
        self.domain_radius = max(c.domain_radius for c in components)

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

    def _combine(self, values_errors):
        val = sum(w * v for w, (v, e) in zip(self.weights, values_errors))
        err = sum(w * e for w, (v, e) in zip(self.weights, values_errors))
        return float(val), float(err)

    def _ball_prob_impl(self, x, r):
        return self._combine([c._ball_prob_impl(x, r) for c in self.components])

    def _moment_fast(self, kernel, x, h, k, s):
        return float(sum(w * c.moment_k(kernel, x, h, k, s) for w, c in zip(self.weights, self.components)))

    def _table(self, kernel, s, h_values, X):
        acc = None
        for w, c in zip(self.weights, self.components):
            t = c.smoothed_derivative_table(kernel, s, h_values, X)
            acc = w * t if acc is None else acc + w * t
        return acc

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


_KINDS = {
    "uniform_cube": lambda cfg: UniformCube(int(cfg["dim"])),
    "unbounded_ball": lambda cfg: UnboundedBall(int(cfg["dim"]), float(cfg["beta"])),
    "uniform_circle": lambda cfg: UniformCircle(float(cfg.get("radius", 1.0))),
    "uniform_sphere": lambda cfg: UniformSphere(int(cfg["manifold_dim"]), float(cfg.get("radius", 1.0))),
    "point_masses": lambda cfg: PointMasses(cfg["locations"], cfg.get("weights")),
}


def distribution_from_config(cfg: dict) -> ReferenceDistribution:
    """Build a distribution from a config mapping {kind, ...parameters}."""
    cfg = dict(cfg)
    kind = str(cfg.pop("kind")).lower()
    if kind == "mixture":
        comps = [distribution_from_config(c) for c in cfg["components"]]
        return Mixture(comps, cfg["weights"])
    if kind not in _KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}; choose from {sorted(_KINDS) + ['mixture']}")
    return _KINDS[kind](cfg)


def write_sample_csv(points: np.ndarray, path) -> None:
    """One row per point, d columns, 17 significant digits."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(points.shape[1])) + "\n")
        for row in points:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
