# bounds.py
# Closed-form bound expressions: the four-term high-probability envelope
# over a bandwidth ray, its dominant-term simplification, the matching
# lower bound, Lipschitz covering-number bounds, and the combined
# Talagrand + VC envelope for uniformly bounded VC classes.  All carry a
# user-set universal constant (default 1); rate verification fits
# constants empirically and tests exponents only.

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .kernels import Kernel, _whole

__all__ = [
    "BoundSpec",
    "upper_bound_ray",
    "upper_bound_ray_terms",
    "upper_bound_simplified",
    "lower_bound",
    "covering_bound",
    "empirical_covering",
    "combined_envelope",
    "bound_report",
]


@dataclass(frozen=True)
class BoundSpec:
    """Inputs to the closed-form bound expressions.

    ``l_n`` doubles as the fixed bandwidth h_n in single-bandwidth
    expressions.  ``eps`` may be zero only when ``assumption_exact`` is set
    (exact-decay regularity) or the volume dimension is zero.  ``sup_norm``
    and ``sigma2_const`` feed the combined envelope as B and sigma^2.
    """

    n: int
    l_n: float
    d: int
    d_vol: float
    delta: float
    eps: float = 0.0
    A: float = 1.0
    nu: float = 1.0
    sup_norm: float = 1.0
    sigma2_const: float | None = None
    s_order: int = 0
    universal_C: float = 1.0
    assumption_exact: bool = True

    def __post_init__(self):
        # checked, not converted: a whole float such as n = 1000.0 stays as given in bound_report
        for name, minimum in (("n", 1), ("d", 1), ("s_order", 0)):
            _whole(getattr(self, name), name, minimum)
        if self.l_n <= 0:
            raise ValueError("l_n must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 <= self.d_vol <= self.d:
            raise ValueError("d_vol must lie in [0, d]")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.d_vol == 0.0:
            if self.eps != 0.0:
                raise ValueError("eps must be 0 when d_vol = 0")
        else:
            if self.eps >= self.d_vol:
                raise ValueError("eps must be < d_vol")
            if self.eps == 0.0 and not self.assumption_exact:
                raise ValueError("eps = 0 requires the exact-decay assumption flag")

    def _log_terms(self) -> tuple[float, float]:
        log_l = max(math.log(1.0 / self.l_n), 0.0)
        log_d = math.log(2.0 / self.delta)
        return log_l, log_d


def upper_bound_ray_terms(spec: BoundSpec) -> dict[str, float]:
    """The four envelope terms for the bandwidth-ray concentration bound."""
    log_l, log_d = spec._log_terms()
    dd = spec.d + spec.s_order
    expo = 2.0 * dd - spec.d_vol + spec.eps
    n, l = spec.n, spec.l_n
    return {
        "vc_linear": log_l / (n * l**dd),
        "vc_sqrt": math.sqrt(log_l / (n * l**expo)),
        "talagrand_sqrt": math.sqrt(log_d / (n * l**expo)),
        "talagrand_linear": log_d / (n * l**dd),
    }


def upper_bound_ray(spec: BoundSpec) -> float:
    """Four-term high-probability envelope for sup_{h >= l_n, x} |D^s p-hat - D^s p|."""
    return spec.universal_C * sum(upper_bound_ray_terms(spec).values())


def upper_bound_simplified(spec: BoundSpec) -> tuple[float, float]:
    """Dominant-term envelope and the side-condition ratio.

    The simplification is valid when the returned ratio
    ((log(1/l))_+ + log(2/delta)) / (n l^(d_vol - eps)) stays bounded; the
    caller owns that check.
    """
    log_l, log_d = spec._log_terms()
    dd = spec.d + spec.s_order
    expo = 2.0 * dd - spec.d_vol + spec.eps
    bound = spec.universal_C * math.sqrt((log_l + log_d) / (spec.n * spec.l_n**expo))
    side = (log_l + log_d) / (spec.n * spec.l_n ** (spec.d_vol - spec.eps))
    return bound, side


def lower_bound(spec: BoundSpec) -> float:
    """High-probability lower envelope C * sqrt(1/(n h^(2d - d_vol))).

    Requires positive volume dimension; the constant is the caller's
    (user-supplied or empirically fitted), carried in universal_C.
    """
    if spec.d_vol <= 0:
        raise ValueError("the lower bound requires positive volume dimension")
    expo = 2.0 * spec.d - spec.d_vol
    return spec.universal_C * math.sqrt(1.0 / (spec.n * spec.l_n**expo))


def covering_bound(kernel: Kernel, h: float, R: float, eta: float, s=None) -> float:
    """Closed-form covering bound ((2 R M h^-1 + ||D^s K||_inf)/eta)^d.

    Valid for the class {D^s K((x - .)/h) : x in B(0, R)} with an
    M-Lipschitz D^s K and eta in (0, ||D^s K||_inf).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if R <= 0:
        raise ValueError("R must be positive")
    sup = kernel.deriv_sup_norm(s)
    if not 0.0 < eta < sup:
        raise ValueError(f"eta must lie in (0, {sup:g})")
    lip = kernel.deriv_lipschitz(s)
    if lip is None:
        raise ValueError(f"kernel {kernel.form} has no Lipschitz constant")
    return ((2.0 * R * lip / h + sup) / eta) ** kernel.dim


def empirical_covering(kernel: Kernel, h: float, x_grid, q_sample, eta: float, s=None) -> int:
    """Size of a greedy eta-net of {D^s K((x - .)/h) : x in grid} in L2(Q).

    The metric is the empirical L2 norm over ``q_sample``.  The net is a
    valid covering whose centers are eta-separated, so its size upper-bounds
    the packing number and is itself upper-bounded by the closed-form
    covering bound whenever eta < ||D^s K||_inf.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    X = np.atleast_2d(np.asarray(getattr(x_grid, "points", x_grid), dtype=float))
    Q = np.atleast_2d(np.asarray(q_sample, dtype=float))
    if X.shape[1] != kernel.dim or Q.shape[1] != kernel.dim:
        raise ValueError("grid/sample dimension mismatch with the kernel")
    diff = (X[:, None, :] - Q[None, :, :]) / h
    F = kernel.deriv_eval_many(s, diff)
    uncovered = np.ones(X.shape[0], dtype=bool)
    count = 0
    for i in range(X.shape[0]):
        if not uncovered[i]:
            continue
        count += 1
        dists = np.sqrt(np.mean((F - F[i]) ** 2, axis=1))
        uncovered &= dists >= eta
    return count


def combined_envelope(spec: BoundSpec) -> float:
    """Talagrand + VC envelope for a uniformly bounded VC class.

    Uses B = sup_norm, sigma^2 = sigma2_const, VC parameters (A, nu);
    requires sigma < 2AB so the entropy logarithm is positive.
    """
    if spec.sigma2_const is None or spec.sigma2_const <= 0:
        raise ValueError("combined envelope needs a positive sigma2_const")
    B = spec.sup_norm
    sigma = math.sqrt(spec.sigma2_const)
    ratio = 2.0 * spec.A * B / sigma
    if ratio <= 1.0:
        raise ValueError("degenerate sigma: 2AB/sigma must exceed 1")
    log_e = math.log(ratio)
    log_d = math.log(1.0 / spec.delta)
    n, nu = spec.n, spec.nu
    total = (
        nu * B / n * log_e
        + math.sqrt(nu * sigma**2 / n * log_e)
        + math.sqrt(sigma**2 * log_d / n)
        + B * log_d / n
    )
    return spec.universal_C * total


def bound_report(spec: BoundSpec) -> dict:
    """All spec fields plus each expression's term values and totals."""
    report: dict = {"spec": asdict(spec)}
    terms = upper_bound_ray_terms(spec)
    report["upper_bound_ray"] = {"terms": terms, "total": upper_bound_ray(spec)}
    bound, side = upper_bound_simplified(spec)
    report["upper_bound_simplified"] = {"bound": bound, "side_condition_ratio": side}
    if spec.d_vol > 0:
        report["lower_bound"] = {"total": lower_bound(spec)}
    if spec.sigma2_const is not None:
        try:
            report["combined_envelope"] = {"total": combined_envelope(spec)}
        except ValueError as exc:
            report["combined_envelope"] = {"error": str(exc)}
    return report
