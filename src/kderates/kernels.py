# kernels.py
# Kernel functions on R^d, their partial derivatives, and the constants
# (sup norms, tail suprema, Lipschitz constants) consumed by the bound
# expressions.
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
#
# _whole is the one check of a whole number (every constructor's dimension,
# BoundSpec's n, d and s_order, harness's counts) and _check_keys the one
# check of a config section's keys (harness, kernel_from_config and
# distribution_from_config); they live here, below every config reader.

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iterproduct
from typing import Callable

import numpy as np
from numpy.polynomial import hermite_e, polynomial

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


def _whole(value, name: str, minimum: int) -> int:
    """value as an int; a bool, a string or a fraction raises ValueError, and so does a value below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _check_keys(section: str, given, known, required=()) -> None:
    """ValueError naming every key of given not in known and every required key given lacks."""
    unknown = sorted(set(given) - set(known))
    missing = sorted(set(required) - set(given))
    if unknown or missing:
        raise ValueError(f"{section}: unknown keys {unknown}, missing keys {missing}; known keys {sorted(known)}")


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
        out = s if isinstance(s, MultiIndex) else cls(tuple(s))
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


@lru_cache(maxsize=None)
def _gaussian_moment_terms(orders: tuple[int, ...], k: float) -> tuple[tuple[MultiIndex, float], ...]:
    """|D^s K(u)|^k = sum of b * D^t phi_sigma(u) over the returned (t, b), for the Gaussian K.

    k is even, or any k > 0 at s = 0, where He_0^k = 1 and the sum is one term.
    sigma = 1/sqrt(k), and phi^k = c phi_sigma per coordinate with
    c = (2 pi)^(-(k-1)/2) / sqrt(k).  He_s(u)^k = sum_t a_t He_t(u/sigma), and
    He_t(u/sigma) phi_sigma(u) = (-sigma)^t phi_sigma^(t)(u), so b is c^d times
    the product over coordinates of a_t sigma^t; He_s^k is even, so every t is.
    As E[D^t phi_sigma((x - X)/h)] = h^(d+|t|) D^t p_(sigma h)(x), a Gaussian
    moment E|D^s K((x - X)/h)|^k is the sum of b h^(d+|t|) D^t p_(h/sqrt(k))(x).
    """
    sigma2, c = 1.0 / k, (2.0 * math.pi) ** (-(k - 1.0) / 2.0) / math.sqrt(k)
    axes = []
    for o in orders:
        p = polynomial.polypow(hermite_e.herme2poly(_herme_coeffs(o)), k) if o else np.ones(1)
        # u^j = sigma^j (u/sigma)^j, and only even j have a nonzero coefficient
        a = hermite_e.poly2herme(p * sigma2 ** (np.arange(p.size) // 2))
        axes.append([(t, c * float(a_t) * sigma2 ** (t // 2)) for t, a_t in enumerate(a) if a_t != 0.0])
    return tuple((MultiIndex(tuple(t for t, _ in combo)), math.prod(b for _, b in combo)) for combo in _iterproduct(*axes))


def _phi_deriv(k: int, t: np.ndarray) -> np.ndarray:
    """k-th derivative of the standard normal density, vectorized."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return _phi(t)
    he = hermite_e.hermeval(t, _herme_coeffs(k))
    return ((-1.0) ** k) * he * _phi(t)


@lru_cache(maxsize=None)
def _phi_deriv_max(k: int) -> float:
    """max |phi^(k)|, taken over the roots of He_{k+1}: the zeros of
    phi^(k+1) = (-1)^(k+1) He_{k+1} phi, and phi^(k) vanishes at infinity."""
    roots, _ = hermite_e.hermegauss(k + 1)
    return float(np.max(np.abs(_phi_deriv(k, roots))))


class Kernel:
    """A bounded kernel on R^d with sup norm, Lipschitz constant and tail profile.

    Built-in forms are radial (K(x) = profile(||x||) with a nonincreasing
    profile), so the sup norm and the tail suprema are profile values.  Only
    the Gaussian (form "gaussian") supports partial derivatives, of any order.

    Arguments: ``form``, ``dim``, ``profile_sq(r2, h, out=None)`` (the value
    profile(sqrt(r2) / h) at squared distance r2 for bandwidth h, written
    into ``out`` when given, which may be r2 itself, and returned),
    ``radial(r)`` (the same profile as a float function of the distance in
    bandwidths, equal bit for bit to ``float(profile(r))``, which None
    defaults to), ``lipschitz`` (None where K has none), ``negligible_r2``
    (below) and ``reach``.  They are normally supplied through the factory
    classmethods :meth:`gaussian`, :meth:`epanechnikov`, :meth:`uniform`,
    :meth:`triangular` and :meth:`custom_radial`.

    ``reach`` is the radius, in bandwidths, beyond which kde_table skips a
    sample block.  It is the support radius of a compact kernel (1 for the
    built-ins, custom_radial's ``support_radius``), where the skip is exact;
    10 for the Gaussian, whose skipped pairs each weigh below exp(-50) K(0)
    (kde.py states the bound); and inf, which skips nothing, otherwise.
    """

    def __init__(
        self,
        form: str,
        dim: int,
        profile_sq: Callable[[np.ndarray, float, np.ndarray | None], np.ndarray],
        radial: Callable[[float], float] | None,
        lipschitz: float | None,
        negligible_r2: float = math.inf,
        reach: float = math.inf,
    ):
        self.form = form
        self.dim = _whole(dim, "dim", 1)
        self._profile_sq = profile_sq
        self.radial = radial if radial is not None else lambda r: float(self.profile(r))
        # the profile is nonincreasing, so its value at 0 is the sup
        self.sup_norm = float(self.radial(0.0))
        self.lipschitz = None if lipschitz is None else float(lipschitz)
        # Squared radius (in bandwidths) from which the profile is below
        # 1e-260 of its peak but still a normal double.  kde_table evaluates
        # farther pairs at this radius, which keeps exp out of its underflow
        # range, where it runs about ten times slower.
        self.negligible_r2 = float(negligible_r2)
        self.reach = float(reach)

    def __repr__(self):
        return f"Kernel(form={self.form!r}, dim={self.dim})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def gaussian(cls, dim: int) -> "Kernel":
        dim = _whole(dim, "dim", 1)
        norm = (2.0 * math.pi) ** (-dim / 2.0)

        def profile_sq(r2, h, out=None, _norm=norm):
            u = np.multiply(r2, -0.5 / (h * h), out=out)
            return np.multiply(np.exp(u, out=out), _norm, out=out)

        def radial(r, _norm=norm):
            return float(np.exp(r * r * -0.5)) * _norm

        # |grad K| = ||x|| K(x), maximized on the unit sphere.
        lip = norm * math.exp(-0.5)
        # beyond r^2 = 1200 the profile is below exp(-600) * K(0) ~ 2.7e-261 * K(0)
        return cls("gaussian", dim, profile_sq, radial, lip, negligible_r2=1200.0, reach=10.0)

    @classmethod
    def epanechnikov(cls, dim: int) -> "Kernel":
        dim = _whole(dim, "dim", 1)
        c = (dim + 2.0) / (2.0 * unit_ball_volume(dim))

        def profile_sq(r2, h, out=None, _c=c):
            u = np.subtract(1.0, np.divide(r2, h * h, out=out), out=out)
            return np.multiply(np.maximum(u, 0.0, out=out), _c, out=out)

        def radial(r, _c=c):
            u = 1.0 - r * r
            return (u if u > 0.0 else 0.0) * _c

        return cls("epanechnikov", dim, profile_sq, radial, 2.0 * c, reach=1.0)

    @classmethod
    def uniform(cls, dim: int) -> "Kernel":
        dim = _whole(dim, "dim", 1)
        c = 1.0 / unit_ball_volume(dim)

        def profile_sq(r2, h, out=None, _c=c):
            # closed ball r <= h, compared in squares: no rounding moves the boundary
            return np.multiply(np.less_equal(r2, h * h), _c, out=out)

        def radial(r, _c=c):
            return _c if r * r <= 1.0 else 0.0

        return cls("uniform", dim, profile_sq, radial, None, reach=1.0)

    @classmethod
    def triangular(cls, dim: int) -> "Kernel":
        dim = _whole(dim, "dim", 1)
        c = (dim + 1.0) / unit_ball_volume(dim)

        def profile_sq(r2, h, out=None, _c=c):
            u = np.subtract(1.0, np.divide(np.sqrt(r2, out=out), h, out=out), out=out)
            return np.multiply(np.maximum(u, 0.0, out=out), _c, out=out)

        def radial(r, _c=c):
            u = 1.0 - math.sqrt(r * r)
            return (u if u > 0.0 else 0.0) * _c

        return cls("triangular", dim, profile_sq, radial, c, reach=1.0)

    @classmethod
    def custom_radial(
        cls,
        dim: int,
        profile: Callable[[np.ndarray], np.ndarray],
        lipschitz: float | None = None,
        support_radius: float | None = None,
    ) -> "Kernel":
        """Kernel from a nonincreasing radial profile [0, inf) -> [0, inf).

        The profile is probed on [0, support_radius or 50] to check that it is
        nonnegative, nonincreasing and finite at 0.  Without a given Lipschitz
        constant the kernel has none, as the uniform kernel has none.  A given
        support_radius is a claim that the profile vanishes beyond it: it
        becomes the kernel's reach, so kde_table skips farther pairs.
        """
        grid = np.linspace(0.0, support_radius if support_radius else 50.0, 20001)
        vals = np.asarray(profile(grid), dtype=float)
        if np.any(vals < 0):
            raise ValueError("custom radial profile must be nonnegative")
        if np.any(np.diff(vals) > 1e-12 * max(1.0, float(vals[0]))):
            raise ValueError("custom radial profile must be nonincreasing")
        if not math.isfinite(float(vals[0])):
            raise ValueError("custom radial profile must have finite sup norm")

        def profile_sq(r2, h, out=None):
            vals = profile(np.sqrt(r2) / h)
            if out is None:
                return vals
            out[...] = vals
            return out

        return cls("custom_radial", dim, profile_sq, None, lipschitz, reach=support_radius or math.inf)

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
        if s.order > 0 and self.form != "gaussian":
            raise ValueError(f"derivative order |s|={s.order} unsupported by the {self.form} kernel")
        return s

    # -- sup norms, tail suprema and Lipschitz constants -------------------

    def tail_sup(self, t: float) -> float:
        """sup over ||x|| >= t of |K(x)|: the profile at t, since it is nonincreasing."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        return self.radial(float(t))

    def deriv_sup_norm(self, s=None) -> float:
        """||D^s K||_inf, exact.

        For s != 0 (the Gaussian) D^s K(x) = prod_i phi^(s_i)(x_i), so the
        sup is the product of the 1-D maxima.
        """
        s = self.derivative_index(s)
        if s.is_zero():
            return self.tail_sup(0.0)
        return math.prod(_phi_deriv_max(k) for k in s.orders)

    def deriv_lipschitz(self, s=None) -> float | None:
        """An upper bound on sup_x ||grad D^s K(x)||_2, the Lipschitz constant of D^s K.

        For s = 0 this is the form's own constant (None for the uniform
        kernel and for a custom_radial kernel given none).  For s != 0 (the
        Gaussian) the j-th partial of D^s K is
        prod_i phi^(s_i + [i = j])(x_i), bounded by the product of the 1-D
        maxima; the bound is the 2-norm of those d products.  It is exact in
        d = 1 and at most sqrt(d) times the supremum, since each product is
        attained.
        """
        s = self.derivative_index(s)
        if s.is_zero():
            return self.lipschitz
        o = s.orders
        partials = [math.prod(_phi_deriv_max(k + (i == j)) for i, k in enumerate(o)) for j in range(len(o))]
        return math.hypot(*partials)

_FORMS = {
    "gaussian": Kernel.gaussian,
    "epanechnikov": Kernel.epanechnikov,
    "uniform": Kernel.uniform,
    "triangular": Kernel.triangular,
}


def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from a config mapping {form, dim}."""
    _check_keys("kernel", cfg, ("form", "dim"), ("form", "dim"))
    form = str(cfg["form"]).lower()
    if form not in _FORMS:
        raise ValueError(f"unknown kernel form {form!r}; choose from {sorted(_FORMS)}")
    return _FORMS[form](cfg["dim"])
