import math

import numpy as np
import pytest

from kderates.kernels import Kernel, MultiIndex, QuadratureError, kernel_from_config


def epanechnikov_1d_direct(u):
    # Independent re-derivation: c = (d+2)/(2*omega_d), omega_1 = 2.
    c = 3.0 / 4.0
    return c * max(0.0, 1.0 - u * u)


class TestEval:
    def test_gaussian_origin_1d(self):
        k = Kernel.gaussian(1)
        assert k.eval([0.0]) == pytest.approx((2 * math.pi) ** -0.5, abs=1e-12)

    def test_uniform_outside_support(self):
        k = Kernel.uniform(2)
        assert k.eval([2.0, 0.0]) == 0.0

    def test_epanechnikov_direct_formula(self):
        k = Kernel.epanechnikov(1)
        assert k.eval([0.5]) == pytest.approx(epanechnikov_1d_direct(0.5), abs=1e-14)

    def test_dimension_mismatch(self):
        k = Kernel.gaussian(2)
        with pytest.raises(ValueError):
            k.eval([1.0])

    def test_bounded_by_sup_norm(self):
        rng = np.random.default_rng(0)
        for k in [Kernel.gaussian(2), Kernel.epanechnikov(2), Kernel.uniform(2), Kernel.triangular(2)]:
            vals = k.eval_many(rng.normal(size=(1000, 2)) * 2)
            assert np.all(np.abs(vals) <= k.sup_norm + 1e-15)

    def test_sup_norms_analytic(self):
        assert Kernel.gaussian(3).sup_norm == pytest.approx((2 * math.pi) ** -1.5)
        assert Kernel.uniform(1).sup_norm == pytest.approx(0.5)
        assert Kernel.epanechnikov(2).sup_norm == pytest.approx(2.0 / math.pi)
        assert Kernel.triangular(1).sup_norm == pytest.approx(1.0)


class TestRadial:
    # r below, at and above the support edge, random r, and the Gaussian's
    # underflow range: r^2/2 from 684 to 760 crosses the subnormals into zero
    _R = (
        [0.0, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 3.0]
        + np.random.default_rng(6).uniform(0.0, 3.0, 20).tolist()
        + np.linspace(37.0, 39.0, 41).tolist()
    )

    @pytest.mark.parametrize(
        "kern",
        [
            Kernel.gaussian(1),
            Kernel.gaussian(3),
            Kernel.epanechnikov(2),
            Kernel.uniform(2),
            Kernel.triangular(1),
            Kernel.custom_radial(2, lambda r: np.maximum(1.0 - r, 0.0) ** 3, support_radius=1.0),
        ],
        ids=["gaussian1", "gaussian3", "epanechnikov2", "uniform2", "triangular1", "custom_radial2"],
    )
    def test_float_profile_is_array_profile(self, kern):
        for r in self._R:
            got = kern.radial(r)
            assert type(got) is float
            assert got.hex() == float(kern.profile(r)).hex(), r
            assert kern.tail_sup(r) == got


class TestDerivatives:
    def test_odd_derivative_at_origin(self):
        k = Kernel.gaussian(1)
        assert k.deriv_eval((1,), [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_zeroth_order_is_eval(self):
        rng = np.random.default_rng(1)
        for kern in [Kernel.gaussian(2), Kernel.epanechnikov(2)]:
            for _ in range(5):
                u = rng.normal(size=2)
                assert kern.deriv_eval((0, 0), u) == kern.eval(u)

    def test_first_derivative_finite_difference(self):
        k = Kernel.gaussian(1)
        eps = 1e-5
        fd = (k.eval([1.0 + eps]) - k.eval([1.0 - eps])) / (2 * eps)
        assert k.deriv_eval((1,), [1.0]) == pytest.approx(fd, abs=1e-6)

    def test_finite_differences_up_to_order_three(self):
        # central differences of eval as the independent oracle
        k = Kernel.gaussian(2)
        rng = np.random.default_rng(2)
        eps = 1e-4
        for _ in range(100):
            u = rng.normal(size=2)
            s = rng.integers(0, 2, size=2)
            if s.sum() == 0 or s.sum() > 3:
                continue
            fd_val = _fd_deriv(k, tuple(s), u, eps)
            assert k.deriv_eval(tuple(s), u) == pytest.approx(fd_val, abs=1e-5)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            Kernel.epanechnikov(1).deriv_eval((1,), [0.3])

    def test_deriv_sup_norm_first_order(self):
        # sup |phi'(t)| = phi(1) at t = +-1
        k = Kernel.gaussian(1)
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert k.deriv_sup_norm((1,)) == pytest.approx(expected, rel=1e-9)


def _fd_deriv(kernel, s, u, eps):
    """Nested central finite differences of kernel.eval (independent oracle)."""

    def rec(orders, point):
        for i, k in enumerate(orders):
            if k > 0:
                lower = list(orders)
                lower[i] -= 1
                up = np.array(point, dtype=float)
                dn = np.array(point, dtype=float)
                up[i] += eps
                dn[i] -= eps
                return (rec(tuple(lower), up) - rec(tuple(lower), dn)) / (2 * eps)
        return kernel.eval(point)

    return rec(s, np.asarray(u, dtype=float))


class TestTailSup:
    def test_gaussian_global_sup(self):
        k = Kernel.gaussian(1)
        assert k.tail_sup(0.0) == pytest.approx((2 * math.pi) ** -0.5)

    def test_uniform_compact(self):
        assert Kernel.uniform(2).tail_sup(1.5) == 0.0

    def test_gaussian_2d_grid_search_oracle(self):
        k = Kernel.gaussian(2)
        # exhaustive grid over the shell ||x|| >= 1 (sup is on the boundary circle)
        theta = np.linspace(0, 2 * math.pi, 4001)
        radii = np.linspace(1.0, 6.0, 2001)
        best = 0.0
        for r in radii[:: len(radii) // 200 or 1]:
            pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
            best = max(best, float(np.abs(k.eval_many(pts)).max()))
        assert k.tail_sup(1.0) == pytest.approx(best, abs=1e-6)

    def test_nonincreasing_in_t(self):
        for k in [Kernel.gaussian(2), Kernel.epanechnikov(1), Kernel.triangular(3)]:
            ts = np.linspace(0, 3, 40)
            vals = [k.tail_sup(t) for t in ts]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_probes_below_tail_sup(self):
        rng = np.random.default_rng(3)
        for k in [Kernel.gaussian(2), Kernel.epanechnikov(2), Kernel.uniform(2), Kernel.triangular(2)]:
            U = rng.normal(size=(10_000, 2)) * 1.5
            norms = np.linalg.norm(U, axis=1)
            vals = np.abs(k.eval_many(U))
            for t in (0.0, 0.5, 1.0, 2.0):
                mask = norms >= t
                if mask.any():
                    assert vals[mask].max() <= k.tail_sup(t) + 1e-12

    def test_gaussian_derivative_tail_d1(self):
        # oracle: dense 1-D grid maximization of |phi'(u)| on |u| >= t
        k = Kernel.gaussian(1)
        grid = np.linspace(0.0, 10.0, 400_001)
        phi = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
        dphi = np.abs(-grid * phi)
        for t in (0.0, 0.5, 1.5, 3.0):
            oracle = dphi[grid >= t].max()
            assert k.tail_sup(t, (1,)) == pytest.approx(oracle, abs=1e-8)

    def test_gaussian_derivative_tail_d2(self):
        # oracle: grid search over the shell for D^(1,0) K
        k = Kernel.gaussian(2)
        t = 0.8
        xs = np.linspace(-5, 5, 1201)
        X, Y = np.meshgrid(xs, xs)
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        keep = np.linalg.norm(pts, axis=1) >= t
        vals = np.abs(k.deriv_eval_many((1, 0), pts[keep]))
        oracle = float(vals.max())
        assert k.tail_sup(t, (1, 0)) >= oracle - 1e-9
        assert k.tail_sup(t, (1, 0)) == pytest.approx(oracle, abs=1e-4)


class TestLipschitz:
    @pytest.mark.parametrize("make", [Kernel.gaussian, Kernel.epanechnikov, Kernel.triangular])
    def test_pairs(self, make):
        k = make(2)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10_000, 2)) * 1.2
        Y = rng.normal(size=(10_000, 2)) * 1.2
        lhs = np.abs(k.eval_many(X) - k.eval_many(Y))
        rhs = k.lipschitz * np.linalg.norm(X - Y, axis=1)
        assert np.all(lhs <= rhs + 1e-12)

    def test_uniform_has_none(self):
        assert Kernel.uniform(2).lipschitz is None


class TestIntegrability:
    def test_uniform_piecewise_constant(self):
        k = Kernel.uniform(1)
        val = k.integrability_integral(d_vol=1.0, k=2.0)
        assert val == pytest.approx(k.sup_norm**2, rel=1e-10)

    def test_gaussian_trapezoid_oracle(self):
        k = Kernel.gaussian(1)
        val = k.integrability_integral(d_vol=1.0, k=2.0)
        t = np.linspace(0, 40, 4_000_001)
        integrand = k.profile(t) ** 2  # t^{d_vol-1} = 1
        oracle = np.trapezoid(integrand, t)
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_k(self):
        k = Kernel.gaussian(2)
        v1 = k.integrability_integral(d_vol=2.0, k=1.0)
        v2 = k.integrability_integral(d_vol=2.0, k=2.0)
        assert math.isfinite(v1) and math.isfinite(v2)
        assert v2 < v1  # ||K||_inf <= 1 so higher powers shrink the tail

    @pytest.mark.parametrize("make,d", [(Kernel.gaussian, 2), (Kernel.epanechnikov, 2), (Kernel.uniform, 2), (Kernel.triangular, 2)])
    def test_finite_for_builtins(self, make, d):
        kern = make(d)
        for d_vol in (0.5, 1.0, d):
            for kk in (1.0, 2.0):
                assert math.isfinite(kern.integrability_integral(d_vol, kk))

    def test_gaussian_derivative_integrable(self):
        k = Kernel.gaussian(1)
        assert math.isfinite(k.integrability_integral(1.0, 2.0, s=(1,)))
        k2 = Kernel.gaussian(2)
        assert math.isfinite(k2.integrability_integral(1.5, 2.0, s=(1, 0)))

    def test_divergent_profile_reported(self):
        heavy = Kernel.custom_radial(1, lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)) ** 0.25)
        with pytest.raises(QuadratureError):
            heavy.integrability_integral(d_vol=1.0, k=2.0)


class TestMultiIndex:
    def test_order_sum(self):
        s = MultiIndex((1, 2, 0))
        assert s.order == 3
        assert s.dim == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_coerce(self):
        assert MultiIndex.coerce(None, 2).is_zero()
        assert MultiIndex.coerce([0, 1], 2).order == 1
        with pytest.raises(ValueError):
            MultiIndex.coerce([1], 2)


def test_kernel_from_config():
    k = kernel_from_config({"form": "Gaussian", "dim": 2})
    assert k.form == "gaussian" and k.dim == 2
    with pytest.raises(ValueError, match="vc_params"):
        kernel_from_config({"form": "epanechnikov", "dim": 1, "vc_params": [1.5, 2.0]})
    with pytest.raises(ValueError):
        kernel_from_config({"form": "cosine", "dim": 1})
