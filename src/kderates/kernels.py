# kernels.py
# Kernel functions on R^d, their partial derivatives, and the scalar
# functionals (sup norms, tail suprema, tail integrals) consumed by the
# bound expressions.
#
# Conventions:
#   All built-in kernels are radial: K(x) = profile(||x||) with profile
#   nonincreasing on [0, inf).  Each form defines its profile twice, side by
#   side.  Kernel.profile_sq acts on arrays of squared distances r^2 and
#   serves the vectorized callers (kde_table, Kernel.profile).
#   Kernel.radial(r) maps one Python float to a Python float and serves the
#   scalar callers: the quadrature integrands of the oracles, called once
#   per node, where numpy's per-call overhead on a 0-d array would cost more
#   than the arithmetic.  The two perform the same IEEE operations in the
#   same order, so they agree bit for bit; the Gaussian's float profile
#   keeps numpy's exp, because the C library's exp rounds differently on
#   some arguments.
#   The Gaussian is the only built-in with derivatives; D^s K factorizes per
#   coordinate through probabilists' Hermite polynomials:
#   d^k/dt^k phi(t) = (-1)^k He_k(t) phi(t).

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iterproduct
from typing import Callable

import numpy as np
from numpy.polynomial import hermite_e
from scipy import integrate

__all__ = [
    "Kernel",
    "MultiIndex",
    "QuadratureError",
    "unit_ball_volume",
    "kernel_from_config",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot certify the requested accuracy."""

    def __init__(self, message: str, estimate: float | None = None, error: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class MultiIndex:
    """Derivative order s in (N u {0})^d with |s| = sum(s)."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if len(self.orders) == 0:
            raise ValueError("multi-index must have at least one component")
        if any((not isinstance(k, (int, np.integer))) or k < 0 for k in self.orders):
            raise ValueError(f"multi-index components must be nonnegative integers, got {self.orders}")
        object.__setattr__(self, "orders", tuple(int(k) for k in self.orders))

    @property
    def order(self) -> int:
        return sum(self.orders)

    @property
    def dim(self) -> int:
        return len(self.orders)

    def is_zero(self) -> bool:
        return self.order == 0

    @classmethod
    def zero(cls, dim: int) -> "MultiIndex":
        return cls((0,) * dim)

    @classmethod
    def coerce(cls, s, dim: int) -> "MultiIndex":
        """Accept None (zero), a MultiIndex, or a sequence of ints."""
        if s is None:
            return cls.zero(dim)
        if isinstance(s, MultiIndex):
            out = s
        else:
            out = cls(tuple(int(k) for k in s))
        if out.dim != dim:
            raise ValueError(f"multi-index has {out.dim} components, expected {dim}")
        return out


# -- Hermite helpers for the Gaussian ----------------------------------------

def _phi(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(t)) / _SQRT_2PI


@lru_cache(maxsize=None)
def _herme_coeffs(k: int) -> tuple[float, ...]:
    c = np.zeros(k + 1)
    c[k] = 1.0
    return tuple(c)


@lru_cache(maxsize=None)
def _gaussian_deriv_monomials(orders: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], float], ...]:
    """D^s K(t) = sum of c * prod_j t_j^e_j * K(t) over the returned (e, c), for the Gaussian K.

    The polynomial is prod_j (-1)^s_j He_s_j(t_j), with zero terms dropped;
    s = 0 gives the single constant term.
    """
    axes = []
    for k in orders:
        coeffs = (-1.0) ** k * hermite_e.herme2poly(_herme_coeffs(k))
        axes.append([(e, float(c)) for e, c in enumerate(coeffs) if c != 0.0])
    return tuple((tuple(e for e, _ in combo), math.prod(c for _, c in combo)) for combo in _iterproduct(*axes))


def _phi_deriv(k: int, t: np.ndarray) -> np.ndarray:
    """k-th derivative of the standard normal density, vectorized."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return _phi(t)
    he = hermite_e.hermeval(t, _herme_coeffs(k))
    return ((-1.0) ** k) * he * _phi(t)


@lru_cache(maxsize=None)
def _herme_roots(k: int) -> tuple[float, ...]:
    """Roots of He_k; the critical points of |He_{k-1}| * phi away from its zeros."""
    if k == 0:
        return ()
    nodes, _ = hermite_e.hermegauss(k)
    return tuple(float(v) for v in nodes)


class Kernel:
    """A bounded kernel on R^d with sup norm, Lipschitz constant and tail profile.

    Built-in forms are radial (K(x) = profile(||x||) with a nonincreasing
    profile), so tail suprema reduce to profile evaluation.  The profile is
    supplied as ``profile_sq(r2, h, out=None)``: the value
    profile(sqrt(r2) / h) at squared distance r2 for bandwidth h, written
    into ``out`` when given (it may be r2 itself) and returned.  The same
    profile is also supplied as the float function ``radial(r)`` of the
    distance in bandwidths, equal bit for bit to ``float(profile(r))``; it
    defaults to that expression.  Only the Gaussian supports partial
    derivatives (of any order).

    Parameters are normally supplied through the factory classmethods
    :meth:`gaussian`, :meth:`epanechnikov`, :meth:`uniform`,
    :meth:`triangular` and :meth:`custom_radial`.
    """

    def __init__(
        self,
        form: str,
        dim: int,
        profile_sq: Callable[[np.ndarray, float, np.ndarray | None], np.ndarray],
        radial: Callable[[float], float] | None,
        sup_norm: float,
        lipschitz: float | None,
        deriv_support: float,
        support_radius: float | None,
        negligible_r2: float = math.inf,
    ):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.form = form
        self.dim = int(dim)
        self._profile_sq = profile_sq
        self.radial = radial if radial is not None else lambda r: float(self.profile(r))
        self.sup_norm = float(sup_norm)
        self.lipschitz = None if lipschitz is None else float(lipschitz)
        self.deriv_support = deriv_support
        self.support_radius = support_radius
        # Squared radius (in bandwidths) from which the profile is below
        # 1e-260 of its peak but still a normal double.  kde_table evaluates
        # farther pairs at this radius, which keeps exp out of its underflow
        # range, where it runs about ten times slower.
        self.negligible_r2 = float(negligible_r2)

    def __repr__(self):
        return f"Kernel(form={self.form!r}, dim={self.dim})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def gaussian(cls, dim: int) -> "Kernel":
        norm = (2.0 * math.pi) ** (-dim / 2.0)

        def profile_sq(r2, h, out=None, _norm=norm):
            u = np.multiply(r2, -0.5 / (h * h), out=out)
            return np.multiply(np.exp(u, out=out), _norm, out=out)

        def radial(r, _norm=norm):
            return float(np.exp(r * r * -0.5)) * _norm

        # |grad K| = ||x|| K(x), maximized on the unit sphere.
        lip = norm * math.exp(-0.5)
        # beyond r^2 = 1200 the profile is below exp(-600) * K(0) ~ 2.7e-261 * K(0)
        return cls("gaussian", dim, profile_sq, radial, norm, lip, math.inf, None, negligible_r2=1200.0)

    @classmethod
    def epanechnikov(cls, dim: int) -> "Kernel":
        c = (dim + 2.0) / (2.0 * unit_ball_volume(dim))

        def profile_sq(r2, h, out=None, _c=c):
            u = np.subtract(1.0, np.divide(r2, h * h, out=out), out=out)
            return np.multiply(np.maximum(u, 0.0, out=out), _c, out=out)

        def radial(r, _c=c):
            u = 1.0 - r * r
            return (u if u > 0.0 else 0.0) * _c

        return cls("epanechnikov", dim, profile_sq, radial, c, 2.0 * c, 0, 1.0)

    @classmethod
    def uniform(cls, dim: int) -> "Kernel":
        c = 1.0 / unit_ball_volume(dim)

        def profile_sq(r2, h, out=None, _c=c):
            # closed ball r <= h, compared in squares: no rounding moves the boundary
            return np.multiply(np.less_equal(r2, h * h), _c, out=out)

        def radial(r, _c=c):
            return _c if r * r <= 1.0 else 0.0

        return cls("uniform", dim, profile_sq, radial, c, None, 0, 1.0)

    @classmethod
    def triangular(cls, dim: int) -> "Kernel":
        c = (dim + 1.0) / unit_ball_volume(dim)

        def profile_sq(r2, h, out=None, _c=c):
            u = np.subtract(1.0, np.divide(np.sqrt(r2, out=out), h, out=out), out=out)
            return np.multiply(np.maximum(u, 0.0, out=out), _c, out=out)

        def radial(r, _c=c):
            u = 1.0 - math.sqrt(r * r)
            return (u if u > 0.0 else 0.0) * _c

        return cls("triangular", dim, profile_sq, radial, c, c, 0, 1.0)

    @classmethod
    def custom_radial(
        cls,
        dim: int,
        profile: Callable[[np.ndarray], np.ndarray],
        lipschitz: float | None = None,
        support_radius: float | None = None,
    ) -> "Kernel":
        """Kernel from a nonincreasing radial profile [0, inf) -> [0, inf).

        The profile is probed on a grid to validate monotonicity and read
        off the sup norm; a Lipschitz constant, if not given, is estimated
        from finite differences on the same grid.
        """
        grid = np.linspace(0.0, support_radius if support_radius else 50.0, 20001)
        vals = np.asarray(profile(grid), dtype=float)
        if np.any(vals < 0):
            raise ValueError("custom radial profile must be nonnegative")
        if np.any(np.diff(vals) > 1e-12 * max(1.0, float(vals[0]))):
            raise ValueError("custom radial profile must be nonincreasing")
        sup = float(vals[0])
        if not math.isfinite(sup):
            raise ValueError("custom radial profile must have finite sup norm")
        if lipschitz is None:
            slopes = np.abs(np.diff(vals)) / (grid[1] - grid[0])
            lipschitz = float(slopes.max()) if slopes.size else 0.0

        def profile_sq(r2, h, out=None):
            vals = profile(np.sqrt(r2) / h)
            if out is None:
                return vals
            out[...] = vals
            return out

        return cls("custom_radial", dim, profile_sq, None, sup, lipschitz, 0, support_radius)

    # -- evaluation -------------------------------------------------------

    def profile_sq(self, r2, h: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
        """Radial value profile(sqrt(r2) / h) at squared distance r2 for bandwidth h.

        Writes into ``out`` when given (it may be ``r2`` itself, for an
        in-place evaluation).
        """
        return self._profile_sq(np.asarray(r2, dtype=float), float(h), out)

    def profile(self, r) -> np.ndarray:
        """Radial value at distance r (vectorized)."""
        return self._profile_sq(np.square(np.asarray(r, dtype=float)), 1.0)

    def eval(self, u) -> float:
        """K(u) for a single point u in R^d."""
        return self.deriv_eval(None, u)

    def eval_many(self, U: np.ndarray) -> np.ndarray:
        """K at each row of U, shape (..., d)."""
        return self.deriv_eval_many(None, U)

    def deriv_eval(self, s, u) -> float:
        """D^s K(u) for a single point u, as the 1-row deriv_eval_many."""
        return float(self.deriv_eval_many(s, np.asarray(u, dtype=float).reshape(1, -1))[0])

    def deriv_eval_many(self, s, U: np.ndarray) -> np.ndarray:
        """D^s K at each row of U, shape (..., d); s = None (or zero) gives K."""
        s = self.derivative_index(s)
        U = np.asarray(U, dtype=float)
        if U.shape[-1:] != (self.dim,):
            raise ValueError(f"points have shape {U.shape}, expected (..., {self.dim})")
        if s.is_zero():
            return self.profile(np.linalg.norm(U, axis=-1))
        out = np.ones(U.shape[:-1])
        for i, k in enumerate(s.orders):
            out = out * _phi_deriv(k, U[..., i])
        return out

    def derivative_index(self, s) -> MultiIndex:
        """s (None for zero, a MultiIndex or a sequence of ints) as a MultiIndex D^s K supports.

        Every entry point that takes a derivative order checks it here.
        """
        s = MultiIndex.coerce(s, self.dim)
        if s.order > self.deriv_support:
            raise ValueError(f"derivative order |s|={s.order} unsupported by the {self.form} kernel")
        return s

    # -- tail suprema -------------------------------------------------------

    def tail_sup(self, t: float, s=None) -> float:
        """sup over ||x|| >= t of |D^s K(x)|; s = 0 gives the kernel case.

        Exact for s = 0 (radial profiles are nonincreasing).  For Gaussian
        derivatives the supremum is located from the Hermite critical
        points plus a boundary-sphere search.
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        s = self.derivative_index(s)
        if s.is_zero():
            return self.radial(float(t))
        return _gaussian_deriv_shell_sup(s.orders, float(t))

    def deriv_sup_norm(self, s=None) -> float:
        """||D^s K||_inf."""
        return self.tail_sup(0.0, s)

    def deriv_lipschitz(self, s=None) -> float | None:
        """Global Lipschitz constant of D^s K (numeric for s != 0)."""
        s = self.derivative_index(s)
        if s.is_zero():
            return self.lipschitz
        return _gaussian_deriv_lipschitz(s.orders)

    # -- integrability functional --------------------------------------------

    def integrability_integral(self, d_vol: float, k: float, s=None) -> float:
        """Tail integral int_0^inf t^(d_vol-1) sup_{||x||>=t} |D^s K(x)|^k dt.

        Computed by adaptive quadrature after the substitution u = t^d_vol
        (which removes the endpoint singularity for d_vol < 1), with the
        truncation point certified against the tail profile.
        """
        if d_vol <= 0:
            raise ValueError("d_vol must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        s = self.derivative_index(s)

        def tail(t):
            return self.tail_sup(t, s)

        if self.support_radius is not None and s.is_zero():
            T = self.support_radius
        else:
            T = 1.0
            while tail(T) ** k * T ** d_vol >= 1e-12:
                T *= 2.0
                if T > 2.0 ** 40:
                    raise QuadratureError("tail does not decay; integral diverges")

        # u = t^d_vol: integral = (1/d_vol) * int_0^{T^d_vol} tail(u^(1/d_vol))^k du
        def g(u):
            return tail(u ** (1.0 / d_vol)) ** k

        main, main_err = integrate.quad(g, 0.0, T ** d_vol, limit=200, epsabs=0.0, epsrel=1e-10)
        if self.support_radius is not None and s.is_zero():
            rest, rest_err = 0.0, 0.0
        else:
            rest, rest_err = integrate.quad(g, T ** d_vol, np.inf, limit=200)
        total = (main + rest) / d_vol
        err = (main_err + rest_err) / d_vol
        if not math.isfinite(total):
            raise QuadratureError("integral diverges", estimate=total, error=err)
        if total > 0 and err / total > 1e-8:
            raise QuadratureError(
                f"quadrature only certified relative error {err / total:.2e}",
                estimate=total,
                error=err,
            )
        return total


# -- Gaussian derivative shell suprema ----------------------------------------


def _gaussian_deriv_abs(orders: tuple[int, ...], X: np.ndarray) -> np.ndarray:
    """|D^s K| for the (2pi)^{-d/2}-normalized Gaussian, rows of X."""
    X = np.asarray(X, dtype=float)
    out = np.ones(X.shape[:-1])
    for i, k in enumerate(orders):
        out = out * np.abs(_phi_deriv(k, X[..., i]))
    return out


@lru_cache(maxsize=None)
def _gaussian_crit_products(orders: tuple[int, ...]) -> np.ndarray:
    """Interior critical points of |D^s K|: per-coordinate He_{s_i+1} roots."""
    axes = [np.asarray(_herme_roots(k + 1)) for k in orders]
    pts = np.array(list(_iterproduct(*axes)))
    return pts.reshape(-1, len(orders))


def _sphere_max(orders: tuple[int, ...], t: float) -> float:
    """max of |D^s K| over the sphere ||x|| = t (coordinatewise-even objective)."""
    d = len(orders)
    if t == 0.0:
        return float(_gaussian_deriv_abs(orders, np.zeros((1, d)))[0])
    if d == 1:
        return float(_gaussian_deriv_abs(orders, np.array([[t]]))[0])
    if d == 2:
        alpha = np.linspace(0.0, math.pi / 2.0, 2049)
        X = t * np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        vals = _gaussian_deriv_abs(orders, X)
        j = int(np.argmax(vals))
        lo = alpha[max(j - 1, 0)]
        hi = alpha[min(j + 1, alpha.size - 1)]
        fine = np.linspace(lo, hi, 513)
        Xf = t * np.stack([np.cos(fine), np.sin(fine)], axis=-1)
        return float(np.max(_gaussian_deriv_abs(orders, Xf)))
    # d >= 3: random directions (fixed stream) plus local refinement.
    rng = np.random.Generator(np.random.Philox(key=0))
    Z = np.abs(rng.standard_normal((4096, d)))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    vals = _gaussian_deriv_abs(orders, t * Z)
    best = Z[int(np.argmax(vals))]
    for scale in (0.3, 0.1, 0.03, 0.01):
        W = best + scale * rng.standard_normal((512, d))
        W = np.abs(W)
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        W = np.vstack([W, best])
        v = _gaussian_deriv_abs(orders, t * W)
        best = W[int(np.argmax(v))]
    return float(_gaussian_deriv_abs(orders, t * best[None, :])[0])


def _gaussian_deriv_shell_sup(orders: tuple[int, ...], t: float) -> float:
    crit = _gaussian_crit_products(orders)
    best = 0.0
    if crit.size:
        norms = np.linalg.norm(crit, axis=1)
        keep = crit[norms >= t]
        if keep.shape[0]:
            best = float(np.max(_gaussian_deriv_abs(orders, keep)))
    if t > 0.0:
        best = max(best, _sphere_max(orders, t))
    else:
        best = max(best, float(_gaussian_deriv_abs(orders, np.zeros((1, len(orders))))[0]))
    return best


@lru_cache(maxsize=None)
def _gaussian_deriv_lipschitz(orders: tuple[int, ...]) -> float:
    """sup_x ||grad D^s K(x)||_2 by dense grid search with refinement."""
    d = len(orders)
    kmax = max(orders)
    L = max(abs(r) for r in _herme_roots(kmax + 2)) + 4.0 if kmax + 2 > 0 else 6.0

    grads = []
    for j in range(d):
        bumped = tuple(k + (1 if i == j else 0) for i, k in enumerate(orders))
        grads.append(bumped)

    def grad_norm(X):
        acc = np.zeros(X.shape[:-1])
        for g in grads:
            acc += np.square(_gaussian_deriv_abs(g, X))
        return np.sqrt(acc)

    n = {1: 200001, 2: 1201, 3: 101}.get(d, 41)
    axes = [np.linspace(0.0, L, n)] * d  # even in every coordinate
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    vals = grad_norm(mesh)
    best_idx = int(np.argmax(vals))
    best_pt = mesh[best_idx]
    best = float(vals[best_idx])
    step = L / (n - 1)
    for _ in range(3):
        step /= 8.0
        local = [np.linspace(max(0.0, c - 8 * step), c + 8 * step, 17) for c in best_pt]
        mesh = np.stack(np.meshgrid(*local, indexing="ij"), axis=-1).reshape(-1, d)
        vals = grad_norm(mesh)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            best_pt = mesh[j]
    return best


_FORMS = {
    "gaussian": Kernel.gaussian,
    "epanechnikov": Kernel.epanechnikov,
    "uniform": Kernel.uniform,
    "triangular": Kernel.triangular,
}


def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from a config mapping {form, dim}."""
    cfg = dict(cfg)
    form = str(cfg.pop("form")).lower()
    dim = int(cfg.pop("dim"))
    if cfg:
        raise ValueError(f"unknown kernel config keys: {sorted(cfg)}")
    if form not in _FORMS:
        raise ValueError(f"unknown kernel form {form!r}; choose from {sorted(_FORMS)}")
    return _FORMS[form](dim)
