import math

import numpy as np
import pytest

from kderates.bounds import covering_bound
from kderates.kde import discretization_bound, kde_table
from kderates.kernels import Kernel, MultiIndex, _gaussian_moment_terms, kernel_from_config


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
        # the profile at 0 is each form's normalising constant, bit for bit
        for d in (1, 2, 3, 4):
            vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
            assert Kernel.gaussian(d).sup_norm == (2.0 * math.pi) ** (-d / 2.0)
            assert Kernel.epanechnikov(d).sup_norm == (d + 2.0) / (2.0 * vol)
            assert Kernel.uniform(d).sup_norm == 1.0 / vol
            assert Kernel.triangular(d).sup_norm == (d + 1.0) / vol
        profile = lambda r: 0.7 * np.maximum(1.0 - r, 0.0) ** 3
        assert Kernel.custom_radial(2, profile, support_radius=1.0).sup_norm == float(profile(np.zeros(1))[0])


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
        custom = Kernel.custom_radial(1, lambda r: np.maximum(1.0 - r, 0.0), support_radius=1.0)
        for k in [Kernel.epanechnikov(1), Kernel.uniform(1), Kernel.triangular(1), custom]:
            with pytest.raises(ValueError, match=rf"derivative order \|s\|=1 unsupported by the {k.form} kernel"):
                k.deriv_eval((1,), [0.3])

    @pytest.mark.parametrize("orders, k", [((1,), 2), ((2,), 2), ((3,), 4), ((1, 0), 2), ((2, 1), 2), ((1, 0, 1), 4)])
    def test_moment_terms_linearise_the_power(self, orders, k):
        # |D^s K(u)|^k against the sum of b D^t phi_sigma(u), where
        # D^t phi_sigma(u) = sigma^-(d+|t|) (D^t phi)(u/sigma) and sigma = 1/sqrt(k)
        d, sigma = len(orders), 1.0 / math.sqrt(k)
        kern = Kernel.gaussian(d)
        U = np.random.default_rng(8).uniform(-3.0, 3.0, size=(200, d))
        want = np.abs(kern.deriv_eval_many(orders, U)) ** k
        terms = _gaussian_moment_terms(orders, k)
        got = sum(b * kern.deriv_eval_many(t, U / sigma) / sigma ** (d + t.order) for t, b in terms)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14 * want.max())
        assert all(t.order % 2 == 0 for t, _ in terms)

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

    def test_custom_radial_has_only_a_given_constant(self):
        # falls from 1 to 0 on r in [0.001, 0.0015]: slope 2000, between the probe grid's nodes
        def steep(r):
            return np.clip((0.0015 - np.asarray(r)) / 0.0005, 0.0, 1.0)

        bare = Kernel.custom_radial(1, steep)
        assert bare.lipschitz is None
        assert math.isinf(discretization_bound(bare, None, 0.01, 0.1))
        with pytest.raises(ValueError, match="no Lipschitz constant"):
            covering_bound(bare, 0.1, 1.0, 0.5)
        given = Kernel.custom_radial(1, steep, lipschitz=2000.0)
        assert given.deriv_lipschitz() == 2000.0
        assert discretization_bound(given, None, 0.01, 0.1) == 2.0 * 2000.0 * 0.01 / 0.1**2


# (||D^s K||_inf, Lip(D^s K)) of the Gaussian as float.hex, recorded when the
# Lipschitz constant was a grid maximum: the sup norm keeps its bits, and the
# certified Lipschitz bound may only rise above the old grid value.
_GRID_ERA_CONSTANTS = {
    (1,): ("0x1.ef8e58e331738p-3", "0x1.9884533d43651p-2"),
    (2,): ("0x1.9884533d43651p-2", "0x1.19e6a638766f1p-1"),
    (3,): ("0x1.19e6a638766f2p-1", "0x1.32633e6df28bdp+0"),
    (0, 1): ("0x1.8b658218d5142p-4", "0x1.45f306dc9c883p-3"),
    (0, 2): ("0x1.45f306dc9c883p-3", "0x1.c1d94f80efd6dp-3"),
    (0, 3): ("0x1.c1d94f80efeecp-3", "0x1.e8ec8a4aeacc5p-2"),
    (1, 0): ("0x1.8b658218d5142p-4", "0x1.45f306dc9c883p-3"),
    (1, 1): ("0x1.dfa3e572aa124p-5", "0x1.8b658218cd1f4p-4"),
    (1, 2): ("0x1.8b658218d5142p-4", "0x1.45f306dc9c883p-3"),
    (2, 0): ("0x1.45f306dc9c883p-3", "0x1.c1d94f80efd6dp-3"),
    (2, 1): ("0x1.8b658218d5142p-4", "0x1.45f306dc9c883p-3"),
    (3, 0): ("0x1.c1d94f80efeecp-3", "0x1.e8ec8a4aeacc5p-2"),
    (0, 0, 1): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (0, 0, 2): ("0x1.0411e71d7795ap-4", "0x1.66ed6e7e99b4bp-4"),
    (0, 0, 3): ("0x1.66ed6e83cc6e3p-4", "0x1.861adaac33607p-3"),
    (0, 1, 0): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (0, 1, 1): ("0x1.7eb29112fcf1fp-6", "0x1.3b7b141c10d11p-5"),
    (0, 1, 2): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (0, 2, 0): ("0x1.0411e71d7795ap-4", "0x1.66ed6e7e99b4cp-4"),
    (0, 2, 1): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (0, 3, 0): ("0x1.66ed6e83cc6e3p-4", "0x1.861adaac33607p-3"),
    (1, 0, 0): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (1, 0, 1): ("0x1.7eb29112fcf1fp-6", "0x1.3b7b141c10d11p-5"),
    (1, 0, 2): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (1, 1, 0): ("0x1.7eb29112fcf1fp-6", "0x1.3b7b141c10d11p-5"),
    (1, 1, 1): ("0x1.d03c4e0dff272p-7", "0x1.7eb2910a6cabap-6"),
    (1, 2, 0): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (2, 0, 0): ("0x1.0411e71d7795ap-4", "0x1.66ed6e7e99b4cp-4"),
    (2, 0, 1): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (2, 1, 0): ("0x1.3b7b141f986ddp-5", "0x1.0411e71d7795ap-4"),
    (3, 0, 0): ("0x1.66ed6e83cc6e3p-4", "0x1.861adaac33607p-3"),
}


def _grad_norm_grid_max(kernel, s, n):
    """max of ||grad D^s K|| on an n^d grid over [-4.5, 4.5]^d, from the partials D^(s + e_j) K."""
    axis = np.linspace(-4.5, 4.5, n)
    X = np.stack(np.meshgrid(*[axis] * kernel.dim, indexing="ij"), axis=-1).reshape(-1, kernel.dim)
    sq = sum(kernel.deriv_eval_many(tuple(k + (i == j) for i, k in enumerate(s)), X) ** 2 for j in range(kernel.dim))
    return float(np.sqrt(sq).max())


class TestGaussianDerivativeConstants:
    @pytest.mark.parametrize("s", sorted(_GRID_ERA_CONSTANTS), ids=str)
    def test_sup_norm_keeps_its_bits(self, s):
        assert Kernel.gaussian(len(s)).deriv_sup_norm(s).hex() == _GRID_ERA_CONSTANTS[s][0]

    @pytest.mark.parametrize("s", sorted(_GRID_ERA_CONSTANTS), ids=str)
    def test_lipschitz_bounds_dense_grid_and_old_value(self, s):
        k = Kernel.gaussian(len(s))
        lip = k.deriv_lipschitz(s)
        assert lip >= _grad_norm_grid_max(k, s, {1: 90001, 2: 901, 3: 91}[k.dim])
        assert lip >= float.fromhex(_GRID_ERA_CONSTANTS[s][1])

    @pytest.mark.parametrize("s", [(1,), (3,)])
    def test_lipschitz_keeps_its_bits_in_1d(self, s):
        assert Kernel.gaussian(1).deriv_lipschitz(s).hex() == _GRID_ERA_CONSTANTS[s][1]

    def test_closed_form_4d(self):
        # s = (1, 1, 0, 0): max|phi| = phi(0), max|phi'| = phi(1) = phi(0) e^(-1/2),
        # max|phi''| = phi(0) (at t = 0), so the partials are bounded by
        # phi(0)^4 e^(-1/2) in x_1, x_2 and phi(0)^4 e^(-3/2) in x_3, x_4
        k = Kernel.gaussian(4)
        phi0_4 = (2 * math.pi) ** -2
        assert k.deriv_sup_norm((1, 1, 0, 0)) == pytest.approx(phi0_4 * math.exp(-1.0), rel=1e-14)
        expected = phi0_4 * math.sqrt(2.0 * math.exp(-1.0) + 2.0 * math.exp(-3.0))
        assert k.deriv_lipschitz((1, 1, 0, 0)) == pytest.approx(expected, rel=1e-14)


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

    def test_coerce_rejects_fractional_order(self):
        # a fractional order is an error, not truncated to its integer part
        with pytest.raises(ValueError, match="nonnegative integers"):
            MultiIndex.coerce([1.5], 1)
        with pytest.raises(ValueError, match="nonnegative integers"):
            kde_table(np.zeros((3, 1)), Kernel.gaussian(1), [0.3], np.zeros((1, 1)), s=[1.5])


def test_kernel_from_config():
    k = kernel_from_config({"form": "Gaussian", "dim": 2})
    assert k.form == "gaussian" and k.dim == 2
    with pytest.raises(ValueError, match="vc_params"):
        kernel_from_config({"form": "epanechnikov", "dim": 1, "vc_params": [1.5, 2.0]})
    with pytest.raises(ValueError):
        kernel_from_config({"form": "cosine", "dim": 1})
