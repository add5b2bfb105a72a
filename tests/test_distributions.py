import decimal
import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

import kderates.distributions as dist_module
from kderates.distributions import (
    Mixture,
    PointMasses,
    UnboundedBall,
    UniformCircle,
    UniformCube,
    UniformSphere,
    distribution_from_config,
)
from kderates.dimension import dyadic_radii
from kderates.harness import ExperimentConfig, run
from kderates.kde import make_eval_grid
from kderates.kernels import Kernel, MultiIndex, QuadratureError, _phi_deriv


GAUSS1 = Kernel.gaussian(1)
GAUSS2 = Kernel.gaussian(2)
GAUSS3 = Kernel.gaussian(3)


def _square_ramp(r):
    t = np.maximum(1.0 - r, 0.0)
    return t * t


# (route, distribution, kernel, k, x, h, bits): quadrature cells of the radial
# routes and the S^2 Gaussian closed form, checked bit for bit; k = None is
# p_h.  One cell per route costs far
# less than a golden moment_scaling config per route.
_PINNED_QUADRATURE = [
    ("ball2_epanechnikov_center", lambda: UnboundedBall(2, 1.0), Kernel.epanechnikov(2), 2.0, (0.0, 0.0), 0.1, "0x1.6224a912ebe6ap-6"),
    ("ball2_epanechnikov_offcenter", lambda: UnboundedBall(2, 1.0), Kernel.epanechnikov(2), 2.0, (0.6, 0.5), 0.4, "0x1.b45e981544475p-7"),
    ("cube2_epanechnikov", lambda: UniformCube(2), Kernel.epanechnikov(2), 2.0, (0.0, 0.0), 0.2, "0x1.1624b7595e93cp-8"),
    ("circle_epanechnikov", lambda: UniformCircle(1.0), Kernel.epanechnikov(2), 2.0, (1.0, 0.0), 0.1, "0x1.c2fd5d2981923p-8"),
    ("cube1_triangular_density", lambda: UniformCube(1), Kernel.triangular(1), None, (0.05,), 0.1, "0x1.c000000000000p-1"),
    ("cube1_uniform", lambda: UniformCube(1), Kernel.uniform(1), 2.0, (0.05,), 0.1, "0x1.3333333333336p-5"),
    ("circle_triangular_density", lambda: UniformCircle(1.0), Kernel.triangular(2), None, (0.8, 0.3), 0.2, "0x1.955a0f44d2c5fp-3"),
    ("sphere2_gaussian_density", lambda: UniformSphere(2), GAUSS3, None, (0.6, 0.0, 0.8), 0.2, "0x1.451660e4d57b1p-3"),
    ("cube1_epanechnikov_k3", lambda: UniformCube(1), Kernel.epanechnikov(1), 3.0, (0.37,), 0.1, "0x1.3bfa2608c6cc5p-5"),
    ("ball1_epanechnikov_k3", lambda: UnboundedBall(1, 0.5), Kernel.epanechnikov(1), 3.0, (0.3,), 0.1, "0x1.21cff5d0c7e64p-6"),
    (
        "cube1_custom_radial",
        lambda: UniformCube(1),
        Kernel.custom_radial(1, _square_ramp, support_radius=1.0),
        2.0,
        (0.3,),
        0.1,
        "0x1.47ae147ae1263p-5",
    ),
    (
        "circle_custom_radial_density",
        lambda: UniformCircle(1.0),
        Kernel.custom_radial(2, _square_ramp, support_radius=1.0),
        None,
        (0.8, 0.3),
        0.2,
        "0x1.6c11ff3dae91ap-5",
    ),
]


def _vector_sphere_average(x, rho, q, f):
    """(average of f(x - y) over y on the sphere of radius rho about 0 in R^(q+1), error bound), for q = 1, 2.

    f acts on rows.  A quadrature over the angles of the vector x - y, which
    reads neither ||x - y|| nor the Bessel closed form: an independent
    reference for the Gaussian routes.
    """
    if q == 1:

        def ang(theta):
            return float(f(np.array([[x[0] - rho * math.cos(theta), x[1] - rho * math.sin(theta)]]))[0])

        v, e = dist_module._quad(ang, 0.0, 2.0 * math.pi)
        return v / (2.0 * math.pi), e / (2.0 * math.pi)
    inner_errs = []

    def outer(theta):
        def az(phi):
            y = rho * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
            return float(f((x - y).reshape(1, -1))[0])

        v, e = dist_module._quad(az, 0.0, 2.0 * math.pi)
        inner_errs.append(e)
        return v * math.sin(theta)

    v, e = dist_module._quad(outer, 0.0, math.pi)
    # each inner error enters weighted by sin(theta), which integrates to 2
    scale = 4.0 * math.pi
    return v / scale, (e + 2.0 * max(inner_errs, default=0.0)) / scale


def _vector_expectation(dist, x, f):
    """(E[f(x - X)], error bound) on a circle, S^2 or 2-D ball, through the distribution's radius pushforward."""
    q = dist.ambient_dim - 1
    return dist._radial_pushforward(lambda rho: _vector_sphere_average(x, rho, q, f))


def _cube_moment_reference(x, s, h, k):
    """(E|D^s K((x - X)/h)|^k on the unit cube, error bound): one 1-D quadrature over y per coordinate."""
    val = bound = 1.0
    for o, t in zip(s, x):
        v, e = dist_module._quad(lambda y: abs(float(_phi_deriv(o, (t - y) / h))) ** k, 0.0, 1.0)
        val *= v
        bound *= v + e
    return val, bound - val


class TestSampling:
    def test_ball_support(self):
        dist = UnboundedBall(2, 1.0)
        pts = dist.sample(5000, seed=7)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)

    def test_point_mass_degenerate(self):
        a = np.array([1.5, -2.0])
        dist = PointMasses([a], [1.0])
        pts = dist.sample(5, seed=3)
        assert pts.shape == (5, 2)
        assert np.all(pts == a)

    def test_ball_radial_cdf_binomial_bands(self):
        # P(||X|| <= r) = r^(d-beta) = r for d=2, beta=1
        dist = UnboundedBall(2, 1.0)
        n = 100_000
        pts = dist.sample(n, seed=11)
        radii = np.linalg.norm(pts, axis=1)
        for r in (0.25, 0.5):
            frac = (radii <= r).mean()
            sigma = math.sqrt(r * (1 - r) / n)
            assert abs(frac - r) <= 3 * sigma

    def test_deterministic_given_seed(self):
        for dist in [UniformCube(2), UnboundedBall(2, 1.0), UniformCircle(1.0), UniformSphere(2)]:
            a = dist.sample(100, seed=42)
            b = dist.sample(100, seed=42)
            c = dist.sample(100, seed=43)
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_goodness_of_fit_marginals(self):
        n = 100_000
        cube = UniformCube(2).sample(n, seed=5)
        for j in range(2):
            assert stats.kstest(cube[:, j], "uniform").pvalue > 1e-3
        ball = UnboundedBall(2, 1.0).sample(n, seed=5)
        # ||X||^(d-beta) should be uniform
        assert stats.kstest(np.linalg.norm(ball, axis=1), "uniform").pvalue > 1e-3
        circ = UniformCircle(1.0).sample(n, seed=5)
        angles = np.mod(np.arctan2(circ[:, 1], circ[:, 0]), 2 * math.pi)
        assert stats.kstest(angles / (2 * math.pi), "uniform").pvalue > 1e-3

    def test_mixture_sampling_proportions(self):
        mix = Mixture([UniformCircle(1.0), UniformCube(2)], [0.5, 0.5])
        pts = mix.sample(50_000, seed=1)
        on_circle = np.abs(np.linalg.norm(pts, axis=1) - 1.0) < 1e-9
        # circle points that fall in the first quadrant also satisfy the cube's
        # support, so classify by the exact radius instead
        assert abs(on_circle.mean() - 0.5) < 0.01


class TestBallProb:
    def test_ball_center_closed_form(self):
        dist = UnboundedBall(2, 1.0)
        assert dist.ball_prob(np.zeros(2), 0.5) == pytest.approx(0.5, abs=1e-12)
        assert dist.ball_prob(np.zeros(2), 2.0) == 1.0

    def test_full_mass_radius(self):
        for dist in [UniformCube(2), UnboundedBall(2, 1.0), UniformCircle(1.0), PointMasses([[0.3, 0.4]])]:
            x = np.array([0.5, -0.25])
            r = dist.support_diameter + np.linalg.norm(x) + dist.support_bound + 0.1
            assert dist.ball_prob(x, r) == pytest.approx(1.0, abs=1e-9)

    def test_circle_arc_formula_vs_mc(self):
        dist = UniformCircle(1.0)
        x = np.array([1.0, 0.0])
        r = 0.1
        expected = 2.0 * math.asin(0.05) / math.pi
        got = dist.ball_prob(x, r)
        assert got == pytest.approx(expected, abs=1e-12)
        n = 10_000_000
        pts = dist.sample(n, seed=123)
        frac = (np.linalg.norm(pts - x, axis=1) < r).mean()
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(got - frac) <= 3 * sigma

    def test_cube_1d_interval(self):
        dist = UniformCube(1)
        assert dist.ball_prob(np.array([0.5]), 0.2) == pytest.approx(0.4, abs=1e-12)
        assert dist.ball_prob(np.array([0.0]), 0.2) == pytest.approx(0.2, abs=1e-12)

    def test_cube_2d_vs_mc(self):
        dist = UniformCube(2)
        x = np.array([0.25, 0.7])
        r = 0.3
        got = dist.ball_prob(x, r)
        n = 2_000_000
        pts = dist.sample(n, seed=9)
        frac = (np.linalg.norm(pts - x, axis=1) < r).mean()
        sigma = math.sqrt(max(frac * (1 - frac), 1e-12) / n)
        assert abs(got - frac) <= 4 * sigma

    def test_ball_offcenter_vs_mc(self):
        dist = UnboundedBall(2, 1.0)
        x = np.array([0.4, 0.1])
        r = 0.25
        got = dist.ball_prob(x, r)
        n = 2_000_000
        pts = dist.sample(n, seed=10)
        frac = (np.linalg.norm(pts - x, axis=1) < r).mean()
        sigma = math.sqrt(max(frac * (1 - frac), 1e-12) / n)
        assert abs(got - frac) <= 4 * sigma

    def test_sphere_cap_vs_mc(self):
        dist = UniformSphere(2)
        x = np.array([1.0, 0.0, 0.0])
        r = 0.5
        got = dist.ball_prob(x, r)
        n = 2_000_000
        pts = dist.sample(n, seed=12)
        frac = (np.linalg.norm(pts - x, axis=1) < r).mean()
        sigma = math.sqrt(max(frac * (1 - frac), 1e-12) / n)
        assert abs(got - frac) <= 4 * sigma

    def test_monotone_in_r_and_bounded(self):
        dists = [UniformCube(2), UnboundedBall(2, 1.0), UniformCircle(1.0), UniformSphere(2)]
        for dist in dists:
            x = dist.special_points()[0]
            probs = [dist.ball_prob(x, r) for r in np.linspace(0.05, 3.0, 25)]
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert all(b >= a - 1e-9 for a, b in zip(probs, probs[1:]))

    def test_mixture_linearity_exact(self):
        c1 = UniformCircle(1.0)
        c2 = UniformCube(2)
        mix = Mixture([c1, c2], [0.3, 0.7])
        x = np.array([0.5, 0.5])
        for r in (0.1, 0.4, 1.0):
            assert mix.ball_prob(x, r) == pytest.approx(
                0.3 * c1.ball_prob(x, r) + 0.7 * c2.ball_prob(x, r), abs=1e-12
            )

    def test_assumption_ratio_sweeps(self):
        # Assumption-style checks: sup_x P(B(x,r))/r^dvol bounded above and,
        # at some x, away from zero over a dyadic radius sweep.
        setups = [UniformCube(1), UniformCube(2), UniformCircle(1.0), UnboundedBall(2, 1.0)]
        radii = [2.0**-j for j in range(1, 11)]
        for dist in setups:
            pts, _ = dist.lattice(60)
            pts = np.vstack([pts, dist.special_points()])
            ratios = np.array(
                [[dist.ball_prob(x, r) / r**dist.analytic_voldim for r in radii] for x in pts]
            )
            assert ratios.max() < 50.0
            per_x_min = ratios[:, 5:].min(axis=1)  # small-r half of the sweep
            assert per_x_min.max() > 1e-3


def _ball_reference(dim, beta, x, r):
    """P(B(x, r)) for UnboundedBall as a quad over the radius rho, with breakpoints at |m +- r|.

    The shell of radius rho puts the fraction acos(c)/pi (circle) or (1 - c)/2
    (sphere S^2, Archimedes) of its mass in the ball, c = (m^2 + rho^2 - r^2) / (2 m rho).
    """
    a = dim - beta
    m = float(np.linalg.norm(x))
    if m == 0.0:
        return min(r, 1.0) ** a

    def shell(rho):
        c = max(-1.0, min(1.0, (m * m + rho * rho - r * r) / (2.0 * m * rho)))
        return (math.acos(c) / math.pi if dim == 2 else 0.5 * (1.0 - c)) * a * rho ** (a - 1.0)

    kinks = [k for k in (abs(m - r), m + r) if 0.0 < k < 1.0]
    return integrate.quad(shell, 0.0, 1.0, points=kinks or None, epsabs=1e-14, limit=200)[0]


def _half_plane_area(a, r):
    """Area of the disk of radius r about 0 in {x >= a}."""
    if a < 0.0:
        return math.pi * r * r - _half_plane_area(-a, r)
    if a >= r:
        return 0.0
    y = math.sqrt(r * r - a * a)
    return math.pi * r * r / 2.0 - a * y - r * r * math.atan2(a, y)


def _quadrant_area(a, b, r):
    """Area of the disk of radius r about 0 in {x >= a, y >= b}."""
    if a < 0.0:
        return _half_plane_area(b, r) - _quadrant_area(-a, b, r)
    if b < 0.0:
        return _half_plane_area(a, r) - _quadrant_area(a, -b, r)
    if a * a + b * b >= r * r:
        return 0.0
    # int_a^top (sqrt(r^2 - x^2) - b) dx, where the circle meets y = b at x = top
    top = math.sqrt(r * r - b * b)
    y = math.sqrt(r * r - a * a)
    arc = 0.5 * (top * b - a * y + r * r * (math.atan2(top, b) - math.atan2(a, y)))
    return arc - b * (top - a)


def _disk_unit_square_area(x, r):
    """Area of the disk B(x, r) inside [0, 1]^2 by inclusion-exclusion of quadrant areas."""
    q = [[_quadrant_area(u - x[0], v - x[1], r) for v in (0.0, 1.0)] for u in (0.0, 1.0)]
    return q[0][0] - q[1][0] - q[0][1] + q[1][1]


class TestBallProbReferences:
    """Ball probabilities against references coded here; the claimed error must cover the true one."""

    @staticmethod
    def _check(dist, x, r, want, tol):
        got, err = dist._ball_prob_impl(np.asarray(x, dtype=float), r)
        assert abs(got - want) <= tol, (x, r, got, want)
        assert abs(got - want) <= err + 1e-14, (x, r, got, want, err)

    def test_ball_on_the_voldim_grid(self):
        dist = UnboundedBall(2, 1.0)
        X = make_eval_grid(dist, 64).points
        cells = [(x, float(r)) for r in dyadic_radii(dist.support_diameter, 3, 8) for x in X]
        # a cell that one quadrature over the whole radius read as 0 with error 0
        cells.append(((0.05, 0.0), 0.0111714808901674))
        for x, r in cells:
            self._check(dist, x, r, _ball_reference(2, 1.0, x, r), 1e-10)

    @pytest.mark.parametrize("dim,beta", [(2, 0.5), (3, 1.0)])
    def test_ball_other_dims_and_exponents(self, dim, beta):
        dist = UnboundedBall(dim, beta)
        rng = np.random.default_rng(41)
        for _ in range(12):
            x = rng.uniform(-0.7, 0.7, dim)
            r = float(rng.uniform(0.005, 1.5))
            self._check(dist, x, r, _ball_reference(dim, beta, x, r), 1e-10)

    def test_cube2_disk_in_square(self):
        dist = UniformCube(2)
        rng = np.random.default_rng(42)
        cells = [((0.2740, 0.0071), 0.3157), ((0.5, 0.5), 0.01), ((-0.2, 1.3), 0.5), ((0.5, 0.5), 1.5)]
        # circles tangent to one, two and four edges, from inside and from outside
        cells += [((0.5, 0.25), 0.25), ((0.25, 0.75), 0.25), ((0.5, 0.5), 0.5), ((0.5, -0.5), 0.5), ((0.5, 1.0), 1.0)]
        cells += [(rng.uniform(-0.5, 1.5, 2), float(rng.uniform(0.001, 1.6))) for _ in range(40)]
        for x, r in cells:
            self._check(dist, x, r, _disk_unit_square_area(x, r), 1e-12)

    def test_cube3_interior_ball(self):
        dist = UniformCube(3)
        for x, r in [((0.5, 0.5, 0.5), 0.3), ((0.4, 0.55, 0.6), 0.1), ((0.3, 0.7, 0.5), 0.25)]:
            self._check(dist, x, r, 4.0 * math.pi * r**3 / 3.0, 1e-10)


class TestSmoothedDensity:
    def test_point_mass_is_scaled_kernel(self):
        a = np.array([0.3])
        dist = PointMasses([a], [1.0])
        h = 0.25
        x = np.array([0.5])
        expected = GAUSS1.eval((x - a) / h) / h
        assert dist.smoothed_density(GAUSS1, h, x) == pytest.approx(expected, abs=1e-14)

    def test_cube_gaussian_cdf_product_and_mc(self):
        dist = UniformCube(1)
        h, x = 0.2, np.array([0.5])
        expected = float(ndtr(0.5 / 0.2) - ndtr(-0.5 / 0.2))
        got = dist.smoothed_density(GAUSS1, h, x)
        assert got == pytest.approx(expected, abs=1e-14)
        n = 10_000_000
        pts = dist.sample(n, seed=77)
        vals = GAUSS1.profile(np.abs(x[0] - pts[:, 0]) / h) / h
        mc, sig = vals.mean(), vals.std() / math.sqrt(n)
        assert abs(got - mc) <= 3 * sig

    def test_circle_bessel_matches_generic_quadrature(self):
        dist = UniformCircle(1.0)
        h = 0.3
        for x in [np.array([0.5, 0.2]), np.array([1.1, 0.0]), np.array([0.0, 0.0])]:
            fast = dist.smoothed_density(GAUSS2, h, x)

            def g(rr):
                return GAUSS2.profile(np.asarray(rr) / h) / h**2

            slow, _ = dist._expect_radial(x, g)
            assert fast == pytest.approx(slow, rel=1e-9)

    def test_ball_fast_path_matches_mc(self):
        dist = UnboundedBall(2, 1.0)
        h = 0.2
        x = np.array([0.3, -0.1])
        got = dist.smoothed_density(GAUSS2, h, x)
        n = 5_000_000
        pts = dist.sample(n, seed=21)
        vals = GAUSS2.profile(np.linalg.norm(x - pts, axis=1) / h) / h**2
        mc, sig = vals.mean(), vals.std() / math.sqrt(n)
        assert abs(got - mc) <= 3.5 * sig

    def test_density_nonnegative(self):
        rng = np.random.default_rng(0)
        for dist in [UniformCube(2), UniformCircle(1.0), UnboundedBall(2, 1.0)]:
            for _ in range(5):
                x = rng.normal(size=2) * 0.5
                assert dist.smoothed_density(GAUSS2, 0.15, x) >= 0.0

    def test_cube_density_integrates_to_one(self):
        dist = UniformCube(1)
        h = 0.2
        grid = np.linspace(-1.5, 2.5, 4001)
        vals = dist.smoothed_density_table(GAUSS1, [h], grid.reshape(-1, 1))[0]
        total = np.trapezoid(vals, grid)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestSmoothedDerivative:
    def test_zeroth_order_equals_density(self):
        dist = UniformCube(2)
        x = np.array([0.4, 0.6])
        assert dist.smoothed_derivative(GAUSS2, (0, 0), 0.3, x) == dist.smoothed_density(GAUSS2, 0.3, x)

    def test_point_mass_odd_symmetry(self):
        dist = PointMasses([[0.0]], [1.0])
        assert dist.smoothed_derivative(GAUSS1, (1,), 0.3, np.array([0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_cube_matches_finite_difference(self):
        dist = UniformCube(1)
        h, x = 0.2, 0.3
        eps = 1e-5
        fd = (
            dist.smoothed_density(GAUSS1, h, np.array([x + eps]))
            - dist.smoothed_density(GAUSS1, h, np.array([x - eps]))
        ) / (2 * eps)
        got = dist.smoothed_derivative(GAUSS1, (1,), h, np.array([x]))
        assert got == pytest.approx(fd, abs=1e-5)

    def test_circle_derivative_matches_finite_difference(self):
        dist = UniformCircle(1.0)
        h = 0.3
        x = np.array([0.8, 0.1])
        eps = 1e-5
        fd = (
            dist.smoothed_density(GAUSS2, h, x + [eps, 0.0])
            - dist.smoothed_density(GAUSS2, h, x - [eps, 0.0])
        ) / (2 * eps)
        got = dist.smoothed_derivative(GAUSS2, (1, 0), h, x)
        assert got == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize(
        "dist, cells", [(UniformCircle(1.0), 10), (UniformSphere(2), 3), (UnboundedBall(2, 1.0), 6)], ids=["circle", "sphere2", "ball"]
    )
    def test_closed_form_matches_vector_quadrature(self, dist, cells):
        # seeded cells with |s| <= 2 against the vector quadrature of D^s phi_h,
        # within its claimed error plus 1e-14 of max(|value|, 1); and the two
        # routes' claimed errors together cover the gap
        d = dist.ambient_dim
        kern = Kernel.gaussian(d)
        orders = [s for s in itertools.product(range(3), repeat=d) if sum(s) <= 2]
        rng = np.random.default_rng(5)
        for _ in range(cells):
            x, s = rng.uniform(-1.1, 1.2, size=d), orders[rng.integers(len(orders))]
            h = float(rng.choice([0.07, 0.15, 0.3]))
            got, claimed = dist._radial_pushforward(dist_module._gauss_sphere(x, h, MultiIndex(s)))
            assert got == dist.smoothed_derivative(kern, s, h, x)
            want, err = _vector_expectation(dist, x, lambda V: kern.deriv_eval_many(s, np.asarray(V) / h) / h ** (d + sum(s)))
            assert abs(got - want) <= err + 1e-14 * max(abs(want), 1.0), (x, s, h)
            assert abs(got - want) - err <= claimed, (x, s, h)

    def test_closed_form_claims_its_cancellation(self):
        # D^(0,2) p_h on the circle at h = 0.1: the j-terms, of size p_h / h^4,
        # cancel to a value of size p_h / h^2 and leave rounding of order
        # 1e-13 of it, so the closed form cannot claim an error of 0
        dist, x, h = UniformCircle(1.0), np.array([0.1503, 1.0507]), 0.1
        value, claimed = dist._radial_pushforward(dist_module._gauss_sphere(x, h, MultiIndex((0, 2))))
        assert value == dist.smoothed_derivative(GAUSS2, (0, 2), h, x)
        assert claimed > 0.0 and claimed >= 1e-13 * abs(value)

    @pytest.mark.parametrize(
        "x, s, bits, exact",
        [
            ((1.0354, -1.1253), (0, 0), "0x1.2ed76a19fe090p-81", "4.892667707972913050098841248632649747047e-25"),
            ((1.2935, -0.1788), (1, 0), "-0x1.11904e34e3302p-20", "-1.019104172803008226510920030442418057031e-6"),
        ],
        ids=["s00", "s10"],
    )
    def test_closed_form_claims_its_far_field_rounding(self, x, s, bits, exact):
        # circle cells at h = 0.05 far from the circle, against 40-digit values
        # on which mpmath's Bessel form and its angle quadrature agree: the
        # rounding of the exponent and of ||x|| moves such a cell by many ulps,
        # and the claimed error must cover it
        dist, x = UniformCircle(1.0), np.array(x)
        value, claimed = dist._radial_pushforward(dist_module._gauss_sphere(x, 0.05, MultiIndex(s)))
        assert value == dist.smoothed_derivative(GAUSS2, s, 0.05, x) == float.fromhex(bits)
        with decimal.localcontext(prec=80):
            assert abs(decimal.Decimal(value) - decimal.Decimal(exact)) <= decimal.Decimal(claimed)

    @pytest.mark.parametrize("dist", [UniformSphere(3), UnboundedBall(4, 1.5)], ids=["sphere3", "ball4"])
    def test_four_dimensional_derivatives_match_finite_differences(self, dist):
        # five-point central differences, per derivative axis, of the s = 0 polar-angle route
        kern = Kernel.gaussian(4)
        stencil = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # over 12 eps

        def density(x, h):
            return dist._expect_radial(x, lambda r: kern.radial(r / h) / h**4)[0]

        rng = np.random.default_rng(3)
        for s in [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2)]:
            for h in (0.2, 0.4):
                x, eps = rng.uniform(-0.7, 0.7, size=4), 0.01 * h
                axes = [i for i, k in enumerate(s) for _ in range(k)]
                fd = 0.0
                for steps in itertools.product(stencil, repeat=len(axes)):
                    y = x.copy()
                    for i, (k, _) in zip(axes, steps):
                        y[i] += k * eps
                    fd += math.prod(w for _, w in steps) * density(y, h)
                fd /= (12.0 * eps) ** len(axes)
                assert dist.smoothed_derivative(kern, s, h, x) == pytest.approx(fd, rel=1e-6), (s, h, x)

    def test_cube2_second_order_matches_finite_difference(self):
        dist = UniformCube(2)
        h = 0.25
        x = np.array([0.4, 0.7])
        eps = 1e-4
        fd = (
            dist.smoothed_density(GAUSS2, h, x + [0, eps])
            - 2 * dist.smoothed_density(GAUSS2, h, x)
            + dist.smoothed_density(GAUSS2, h, x - [0, eps])
        ) / eps**2
        got = dist.smoothed_derivative(GAUSS2, (0, 2), h, x)
        assert got == pytest.approx(fd, abs=1e-4)


class TestMomentK:
    def test_point_mass_exact(self):
        a = np.array([0.2, 0.1])
        dist = PointMasses([a], [1.0])
        h, x, k = 0.3, np.array([0.5, 0.5]), 2.0
        expected = abs(GAUSS2.eval((x - a) / h)) ** k
        assert dist.moment_k(GAUSS2, x, h, k) == pytest.approx(expected, abs=1e-14)

    def test_uniform_kernel_is_interval_probability(self):
        dist = UniformCube(1)
        kern = Kernel.uniform(1)
        h, x = 0.2, np.array([0.5])
        # K = sup_norm * indicator(|u| <= 1), so E[K] = sup_norm * P(|x - X| <= h)
        expected = kern.sup_norm * 0.4
        assert dist.moment_k(kern, x, h, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_gaussian_rescaling_vs_direct_quadrature(self):
        # k = 1.5 is the one s = 0 moment whose linearisation skips the power of He_0
        h = 0.25
        for dist, x in [(UniformCircle(1.0), (1.0, 0.0)), (UniformCube(1), (0.3,)), (UnboundedBall(2, 1.0), (0.3, 0.2))]:
            kern, x = Kernel.gaussian(dist.ambient_dim), np.array(x)
            for k in (1.5, 2.0, 3.0):
                got = dist.moment_k(kern, x, h, k)
                direct, _ = dist._expect_radial(x, lambda rr: kern.radial(rr / h) ** k)
                assert got == pytest.approx(direct, rel=1e-8), (dist.kind, k)

    @pytest.mark.parametrize(
        "route, make, kern, k, x, h, bits", _PINNED_QUADRATURE, ids=[c[0] for c in _PINNED_QUADRATURE]
    )
    def test_quadrature_pinned(self, route, make, kern, k, x, h, bits):
        dist = make()
        if k is None:
            got = dist.smoothed_density(kern, h, np.array(x))
        else:
            got = dist.moment_k(kern, np.array(x), h, k)
        assert got == float.fromhex(bits)

    @pytest.mark.parametrize("x", [(0.2, 0.1), (1.2, 1.2), (-1.1, 1.2)])
    def test_negligible_moment_is_certified(self, x):
        # about 5e-28 at (0.2, 0.1): no relative target certifies it, but its
        # error is within the absolute accuracy of the quadrature
        val = UniformCircle(1.0).moment_k(GAUSS2, np.array(x), 0.1, 2.0, (1, 0))
        assert 0.0 <= val < 1e-12

    def test_mixture_derivative_moment_scaling_runs(self, tmp_path, monkeypatch):
        # the circle's cells at the cube's lattice points are about 1e-44
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = {
            "mode": "moment_scaling",
            "distribution": {
                "kind": "mixture",
                "components": [{"kind": "uniform_circle", "radius": 1.0}, {"kind": "uniform_cube", "dim": 2}],
                "weights": [0.4, 0.6],
            },
            "kernel": {"form": "gaussian", "dim": 2},
            "s": [1, 0],
            "moment": {"k": 2.0},
            "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 4},
            "x_grid": {"target_size": 16},
        }
        report = run(ExperimentConfig.from_dict(cfg), tmp_path)
        assert len(report["values"]) == 4
        assert all(0.0 < v < GAUSS2.deriv_sup_norm((1, 0)) ** 2 for v in report["values"])

    @pytest.mark.parametrize(
        "dist, cells", [(UniformCircle(1.0), 8), (UniformSphere(2), 2), (UnboundedBall(2, 1.0), 4), (UniformCube(2), 8)],
        ids=["circle", "sphere2", "ball", "cube2"],
    )
    def test_linearised_derivative_moment_matches_quadrature(self, dist, cells):
        # seeded k = 2 cells with 1 <= |s| <= 2 against a quadrature of
        # |D^s K|^2 itself, within its claimed error plus 1e-14 of max(|value|, 1)
        d = dist.ambient_dim
        kern = Kernel.gaussian(d)
        orders = [s for s in itertools.product(range(3), repeat=d) if 1 <= sum(s) <= 2]
        rng = np.random.default_rng(21)
        for _ in range(cells):
            x, s = rng.uniform(-1.1, 1.2, size=d), orders[rng.integers(len(orders))]
            h = float(rng.choice([0.1, 0.2, 0.4]))
            got = dist.moment_k(kern, x, h, 2.0, s)
            if dist.kind == "uniform_cube":
                want, err = _cube_moment_reference(x, s, h, 2.0)
            else:
                want, err = _vector_expectation(dist, x, lambda V: kern.deriv_eval_many(s, np.asarray(V) / h) ** 2)
            assert abs(got - want) <= err + 1e-14 * max(abs(want), 1.0), (x, s, h)

    @pytest.mark.parametrize("dist", [UniformSphere(3), UnboundedBall(4, 1.5)], ids=["sphere3", "ball4"])
    def test_four_dimensional_derivative_moment_at_centre(self, dist):
        # at x = 0 the sphere of radius rho sees |D^(1,0,0,0) K|^2 = u_1^2 phi_4(u)^2 at
        # |u| = rho/h, and u_1^2 averages to (rho/h)^2 / 4
        h = 0.3

        def on_sphere(rho):
            return (math.exp(-0.5 * (rho / h) ** 2) / (2.0 * math.pi) ** 2) ** 2 * rho**2 / (4.0 * h * h), 0.0

        want, _ = dist._radial_pushforward(on_sphere)
        got = dist.moment_k(Kernel.gaussian(4), np.zeros(4), h, 2.0, (1, 0, 0, 0))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_derivative_moment_on_a_sphere_needs_even_k(self):
        with pytest.raises(ValueError, match="even"):
            UniformSphere(2).moment_k(GAUSS3, np.array([0.3, 0.2, 0.9]), 0.2, 3.0, (1, 0, 0))

    @pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_cube_derivative_moment_at_small_h(self, k, h):
        # at an interior x the support covers the spike of width h whole:
        # h times the integral over R of |phi'(u)|^k, which is
        # 1/(4 sqrt(pi)) at k = 2 and (4/9) (2 pi)^(-3/2) at k = 3
        integral = 1.0 / (4.0 * math.sqrt(math.pi)) if k == 2.0 else 4.0 / 9.0 * (2.0 * math.pi) ** -1.5
        got = UniformCube(1).moment_k(GAUSS1, np.array([0.3]), h, k, (1,))
        assert got == pytest.approx(integral * h, rel=1e-9)

    def test_circle_moment_scaling_slope(self):
        dist = UniformCircle(1.0)
        x = np.array([1.0, 0.0])
        hs = np.geomspace(0.05, 0.4, 10)
        vals = np.array([dist.moment_k(GAUSS2, x, h, 2.0) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)


# (kind, distribution, derivative orders, number of points): nonzero orders
# and point counts where the Gaussian oracle of the kind runs at test speed.
_ONE_BY_ONE_CASES = [
    ("cube1", lambda: UniformCube(1), [None, (1,), (2,)], 6),
    ("cube2", lambda: UniformCube(2), [None, (1, 0), (1, 1), (0, 2)], 6),
    ("circle", lambda: UniformCircle(1.0), [None, (1, 0)], 6),
    ("sphere2", lambda: UniformSphere(2), [None, (1, 0, 0), (0, 1, 1)], 6),
    ("ball", lambda: UnboundedBall(2, 1.0), [None, (0, 1), (2, 0)], 6),
    ("point_masses", lambda: PointMasses([[0.0, 0.0], [0.5, 0.25]], [0.25, 0.75]), [None, (1, 0), (2, 1)], 6),
    ("mixture", lambda: Mixture([UniformCircle(1.0), UniformCube(2)], [0.4, 0.6]), [None, (1, 1)], 6),
]


# (route, distribution, kernel, s, k, bandwidths, points): every moment_table route
_MOMENT_ROUTES = [
    ("cube2_gaussian_derivative", lambda: UniformCube(2), GAUSS2, (1, 0), 2.0, [0.1, 0.3], [[0.2, 0.5], [0.9, 0.1], [1.1, -0.05]]),
    ("circle_gaussian_rescaled", lambda: UniformCircle(1.0), GAUSS2, None, 2.0, [0.1, 0.3], [[1.0, 0.0], [0.3, 0.8], [0.0, 0.0]]),
    ("circle_gaussian_derivative", lambda: UniformCircle(1.0), GAUSS2, (1, 0), 2.0, [0.1, 0.3], [[1.0, 0.0], [0.3, 0.8], [0.0, 0.0]]),
    (
        "sphere2_gaussian_derivative",
        lambda: UniformSphere(2),
        GAUSS3,
        (1, 0, 0),
        2.0,
        [0.2, 0.5],
        [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]],
    ),
    ("ball2_gaussian_derivative", lambda: UnboundedBall(2, 1.0), GAUSS2, (0, 1), 2.0, [0.1, 0.4], [[0.0, 0.0], [0.6, 0.5]]),
    ("cube1_gaussian_derivative_k3", lambda: UniformCube(1), GAUSS1, (1,), 3.0, [0.1, 0.3], [[0.0], [0.45], [1.2]]),
    (
        "point_masses",
        lambda: PointMasses([[0.0, 0.0], [0.5, 0.25], [-0.3, 0.7]], [0.2, 0.3, 0.5]),
        GAUSS2,
        (1, 0),
        3.0,
        [0.1, 0.3],
        [[0.1, 0.1], [0.5, 0.25], [-0.5, 0.9]],
    ),
    (
        "mixture_derivative",
        lambda: Mixture([PointMasses([[0.1, 0.2]], [1.0]), UniformCube(2)], [0.4, 0.6]),
        GAUSS2,
        (1, 1),
        2.0,
        [0.1, 0.3],
        [[0.2, 0.5], [0.1, 0.25]],
    ),
    (
        "mixture_rescaled",
        lambda: Mixture([UniformCircle(1.0), UniformCube(2)], [0.4, 0.6]),
        GAUSS2,
        None,
        2.0,
        [0.1, 0.3],
        [[0.2, 0.5], [0.8, 0.6]],
    ),
    ("cube1_epanechnikov", lambda: UniformCube(1), Kernel.epanechnikov(1), None, 2.0, [0.1, 0.3], [[0.0], [0.45], [0.97]]),
    ("circle_epanechnikov", lambda: UniformCircle(1.0), Kernel.epanechnikov(2), None, 2.0, [0.1, 0.3], [[1.0, 0.0], [0.7, 0.5]]),
    (
        "sphere2_epanechnikov",
        lambda: UniformSphere(2),
        Kernel.epanechnikov(3),
        None,
        2.0,
        [0.2, 0.5],
        [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]],
    ),
    ("ball1_epanechnikov", lambda: UnboundedBall(1, 0.5), Kernel.epanechnikov(1), None, 2.0, [0.1, 0.4], [[0.0], [0.3], [-0.8]]),
    ("ball2_epanechnikov", lambda: UnboundedBall(2, 1.0), Kernel.epanechnikov(2), None, 2.0, [0.4], [[0.0, 0.0], [0.6, 0.5]]),
]

# one distribution of each kind, for ball_prob_table
_BALL_KINDS = [
    UniformCube(2),
    UnboundedBall(2, 1.0),
    UniformCircle(1.0),
    UniformSphere(2),
    PointMasses([[0.0, 0.0], [0.5, 0.25]], [0.25, 0.75]),
    Mixture([UniformCircle(1.0), UniformCube(2)], [0.4, 0.6]),
]


# kinds with an exact Gaussian table route
_EXACT_TABLE_KINDS = [
    UniformCube(2),
    UniformCircle(1.0),
    PointMasses([[0.0, 0.0]], [1.0]),
    Mixture([UniformCircle(1.0), UniformCube(2)], [0.5, 0.5]),
]


class TestOneTable:
    @pytest.mark.parametrize("name, make, orders, m", _ONE_BY_ONE_CASES, ids=[c[0] for c in _ONE_BY_ONE_CASES])
    def test_pointwise_is_one_by_one_table(self, name, make, orders, m):
        dist = make()
        d = dist.ambient_dim
        kern = Kernel.gaussian(d)
        rng = np.random.default_rng(11)
        X = rng.uniform(-1.1, 1.2, size=(m, d))
        for s in orders:
            for h in (0.07, 0.3):
                for x in X:
                    table = dist.smoothed_derivative_table(kern, s, [h], x.reshape(1, -1))
                    assert table.shape == (1, 1)
                    assert dist.smoothed_derivative(kern, s, h, x) == table[0, 0], (s, h, x)
                    if s is None:
                        assert dist.smoothed_density(kern, h, x) == table[0, 0]
                        assert dist.smoothed_density_table(kern, [h], x.reshape(1, -1))[0, 0] == table[0, 0]

    @pytest.mark.parametrize("route, make, kern, s, k, hs, X", _MOMENT_ROUTES, ids=[c[0] for c in _MOMENT_ROUTES])
    def test_moment_table_cells_are_moment_k(self, route, make, kern, s, k, hs, X):
        dist = make()
        table = dist.moment_table(kern, s, hs, np.array(X), k)
        assert table.shape == (len(hs), len(X))
        for i, h in enumerate(hs):
            for j, x in enumerate(X):
                assert table[i, j] == dist.moment_k(kern, np.array(x), h, k, s), (h, x)

    @pytest.mark.parametrize("dist", _BALL_KINDS, ids=lambda d: d.kind)
    def test_ball_prob_table_cells_are_ball_prob(self, dist):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.1, 1.2, size=(5, dist.ambient_dim))
        radii = [0.03, 0.2, 0.7, 2.5]
        table = dist.ball_prob_table(radii, X)
        assert table.shape == (4, 5)
        for i, r in enumerate(radii):
            for j, x in enumerate(X):
                assert table[i, j] == dist.ball_prob(x, r), (r, x)

    @pytest.mark.parametrize(
        "locations, weights",
        [([[0.0, 0.0], [0.5, 0.25]], [0.25, 0.75]), ([[0.0, 0.0], [0.5, 0.25], [-0.3, 0.7]], [0.2, 0.3, 0.5])],
        ids=["2_atoms", "3_atoms"],
    )
    def test_point_mass_cells_do_not_depend_on_table_size(self, locations, weights):
        dist = PointMasses(locations, weights)
        X = np.random.default_rng(8).uniform(-1.1, 1.2, size=(200, 2))
        hs = [0.07, 0.3]
        for table_of in (
            lambda s, hs, X: dist.smoothed_derivative_table(GAUSS2, s, hs, X),
            lambda s, hs, X: dist.moment_table(GAUSS2, s, hs, X, 2.0),
        ):
            for s in (None, (1, 0)):
                table = table_of(s, hs, X)
                for i, h in enumerate(hs):
                    for j, x in enumerate(X):
                        assert table[i, j] == table_of(s, [h], x[None])[0, 0], (s, h, x)

    @pytest.mark.parametrize("h", [0.0, -0.1, float("nan")])
    @pytest.mark.parametrize("dist", _EXACT_TABLE_KINDS, ids=["cube2", "circle", "point_masses", "mixture"])
    def test_table_rejects_nonpositive_h(self, dist, h):
        with pytest.raises(ValueError, match="positive"):
            dist.smoothed_derivative_table(GAUSS2, None, [0.2, h], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="positive"):
            dist.smoothed_derivative_table(GAUSS2, (1, 0), [h], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="positive"):
            dist.moment_table(GAUSS2, (1, 0), [0.2, h], np.zeros((3, 2)), 2.0)
        with pytest.raises(ValueError, match="positive"):
            dist.ball_prob_table([0.2, h], np.zeros((3, 2)))

    @pytest.mark.parametrize("k", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("dist", _EXACT_TABLE_KINDS, ids=["cube2", "circle", "point_masses", "mixture"])
    def test_moment_table_rejects_nonpositive_k(self, dist, k):
        with pytest.raises(ValueError, match="k must be positive"):
            dist.moment_table(GAUSS2, None, [0.2], np.zeros((3, 2)), k)
        with pytest.raises(ValueError, match="k must be positive"):
            dist.moment_k(GAUSS2, np.zeros(2), 0.2, k)

    @pytest.mark.parametrize("dist", _EXACT_TABLE_KINDS, ids=["cube2", "circle", "point_masses", "mixture"])
    def test_table_rejects_wrong_point_dimension(self, dist):
        with pytest.raises(ValueError, match="shape"):
            dist.smoothed_density_table(GAUSS2, [0.2], np.zeros((4, 3)))
        with pytest.raises(ValueError, match="shape"):
            dist.smoothed_derivative(GAUSS2, None, 0.2, np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            dist.moment_table(GAUSS2, None, [0.2], np.zeros((4, 3)), 2.0)
        with pytest.raises(ValueError, match="shape"):
            dist.moment_k(GAUSS2, np.zeros(3), 0.2, 2.0)
        with pytest.raises(ValueError, match="shape"):
            dist.ball_prob_table([0.2], np.zeros((4, 3)))
        with pytest.raises(ValueError, match="shape"):
            dist.ball_prob(np.zeros(3), 0.2)

    def test_table_rejects_unsupported_derivative_order(self):
        epan1 = Kernel.epanechnikov(1)
        for dist in [PointMasses([[0.0]], [1.0]), UniformCube(1), Mixture([PointMasses([[0.0]], [1.0])], [1.0])]:
            with pytest.raises(ValueError, match="unsupported"):
                dist.smoothed_derivative_table(epan1, (1,), [0.3], np.array([[0.2]]))
            with pytest.raises(ValueError, match="unsupported"):
                dist.smoothed_derivative(epan1, (1,), 0.3, np.array([0.2]))
            with pytest.raises(ValueError, match="unsupported"):
                dist.moment_table(epan1, (1,), [0.3], np.array([[0.2]]), 2.0)
            with pytest.raises(ValueError, match="unsupported"):
                dist.moment_k(epan1, np.array([0.2]), 0.3, 2.0, (1,))

    def test_table_rejects_kernel_of_another_dimension(self):
        for dist, kernel in [(UniformCube(1), Kernel.gaussian(2)), (UniformCircle(), Kernel.epanechnikov(1))]:
            X = np.full((1, dist.ambient_dim), 0.2)
            with pytest.raises(ValueError, match="kernel dimension"):
                dist.smoothed_density_table(kernel, [0.3], X)
            with pytest.raises(ValueError, match="kernel dimension"):
                dist.moment_table(kernel, None, [0.3], X, 2.0)

    def test_sphere2_vector_error_budget(self, monkeypatch):
        # every quad reports error e: the outer one adds e, and the inner ones,
        # weighted by sin(theta) over [0, pi], add up to 2e
        real_quad, e = dist_module._quad, 1e-9
        monkeypatch.setattr(dist_module, "_quad", lambda f, a, b, **kw: (real_quad(f, a, b, **kw)[0], e))
        x = np.array([0.6, 0.0, 0.8])
        _, err = _vector_expectation(UniformSphere(2), x, lambda V: GAUSS3.deriv_eval_many((1, 0, 0), V / 0.5))
        assert err == pytest.approx(3.0 * e / (4.0 * math.pi), rel=1e-12)

    def test_quadrature_fallback_matches_exact_table(self):
        # the Epanechnikov kernel has no table route on the cube: certified quadrature
        dist = UniformCube(1)
        epan = Kernel.epanechnikov(1)
        X = np.array([[0.0], [0.1], [0.5], [1.05]])
        got = dist.smoothed_density_table(epan, [0.2, 0.4], X)
        for i, h in enumerate([0.2, 0.4]):
            for j, (x,) in enumerate(X):
                # integral of (3/4)(1 - u^2) over u in [(x-1)/h, x/h] clipped to [-1, 1]
                a, b = max(-1.0, (x - 1.0) / h), min(1.0, x / h)
                expected = 0.75 * ((b - b**3 / 3) - (a - a**3 / 3)) if b > a else 0.0
                assert got[i, j] == pytest.approx(expected, abs=1e-9)


# (kind, distribution, point, bandwidths): rotation-invariant kinds, at a point
# and bandwidths where the Epanechnikov cells certify quickly
_RADIAL_KINDS = [
    ("ball", UnboundedBall(2, 1.0), (0.36, 0.48), [0.6]),
    ("circle", UniformCircle(1.0), (0.8, 0.3), [0.2, 0.6]),
    ("sphere2", UniformSphere(2), (0.3, 0.5, 0.6), [0.3, 0.6]),
]


def _counting(monkeypatch, cls, name):
    """Patch cls.name to record the points it is called at; returns the list of points."""
    real, calls = getattr(cls, name), []

    def counted(self, x, *args):
        calls.append(tuple(x))
        return real(self, x, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_fill_certifies_each_cell():
    # _fill is the certification gate of every quadrature-filled table: a
    # cell whose claimed error exceeds tol * max(|value|, floor) fails it
    dist = UniformCube(1)
    X = np.zeros((2, 1))
    tol = dist._moment_tol
    with pytest.raises(QuadratureError, match="smoothed_density quadrature error"):
        dist._fill([0.1], X, lambda x, row: (2.0, 2.02 * tol), tol, "smoothed_density")
    assert dist._fill([0.1], X, lambda x, row: (2.0, 1.98 * tol), tol, "smoothed_density").tolist() == [[2.0, 2.0]]
    # a negligible moment is certified when its error is within the absolute floor
    floor = dist_module._EPSABS / tol
    assert dist._fill([0.1], X, lambda x, row: (1e-30, 0.9e-12), tol, "moment_k", floor).tolist() == [[1e-30, 1e-30]]
    with pytest.raises(QuadratureError, match="moment_k quadrature error 1.10e-12 exceeds target"):
        dist._fill([0.1], X, lambda x, row: (1e-30, 1.1e-12), tol, "moment_k", floor)


class TestRadialCells:
    """A rotation-invariant kind fills a radial cell once per distance from its centre."""

    @pytest.mark.parametrize("name, dist, x, hs", _RADIAL_KINDS, ids=[c[0] for c in _RADIAL_KINDS])
    def test_images_are_their_one_by_one_tables(self, name, dist, x, hs):
        # the point, its swap and its reflection share one distance; the centre is another
        a, b, *rest = x
        X = np.array([[a, b, *rest], [b, a, *rest], [-a, b, *rest], [0.0] * len(x)])
        epan = Kernel.epanechnikov(dist.ambient_dim)
        tables = [
            (hs, lambda hs, X: dist.smoothed_density_table(epan, hs, X)),
            (hs, lambda hs, X: dist.moment_table(epan, None, hs, X, 2.0)),
            ([0.2, 0.7], dist.ball_prob_table),
        ]
        for rows, table_of in tables:
            table = table_of(rows, X)
            assert np.all(table[:, 0] > 0.0)
            for i, v in enumerate(rows):
                for j, p in enumerate(X):
                    assert table[i, j] == table_of([v], p[None])[0, 0], (i, v, p)

    @pytest.mark.parametrize("dist", [UnboundedBall(2, 1.0), UniformCircle(1.0)], ids=["ball", "circle"])
    def test_one_gauss_sphere_cell_per_radius_and_bandwidth(self, dist, monkeypatch):
        # s = 0 cells read x through ||x|| alone; derivatives, through the direction too
        X = np.vstack([make_eval_grid(dist, 40).points, [[0.3, 0.4], [0.4, 0.3], [-0.3, 0.4]]])
        real, calls = dist_module._gauss_sphere, []
        monkeypatch.setattr(dist_module, "_gauss_sphere", lambda x, h, s: calls.append(tuple(x)) or real(x, h, s))
        hs = [0.1, 0.3]
        dist.smoothed_density_table(GAUSS2, hs, X)
        radii = {float(np.linalg.norm(x)) for x in X}
        assert len(radii) < X.shape[0]
        assert len(calls) == len(hs) * len(radii)
        assert {float(np.linalg.norm(x)) for x in calls} == radii
        calls.clear()
        dist.smoothed_derivative_table(GAUSS2, (1, 0), hs, X)
        assert len(calls) == len(hs) * X.shape[0]

    def test_other_cells_are_not_keyed(self, monkeypatch):
        # one distance from 0 for every point: each cell is still filled on its own
        X2 = np.array([[0.3, 0.4], [0.4, 0.3], [-0.3, 0.4]])
        epan1 = Kernel.epanechnikov(1)
        cases = [
            (UniformCube, "_ball_prob_impl", lambda: UniformCube(2).ball_prob_table([0.2], X2), 3),
            (UniformCube, "_expect_radial", lambda: UniformCube(1).moment_table(epan1, None, [0.2], [[0.3], [-0.3]], 2.0), 2),
            (
                Mixture,
                "_ball_prob_impl",
                lambda: Mixture([UniformCircle(1.0), UnboundedBall(2, 1.0)], [0.5, 0.5]).ball_prob_table([0.2], X2),
                3,
            ),
        ]
        for cls, name, fill, cells in cases:
            with monkeypatch.context() as patch:
                calls = _counting(patch, cls, name)
                fill()
            assert len(calls) == cells, (cls.__name__, name)


class TestMixtureWeights:
    def test_single_component_weight_one(self):
        Mixture([UniformCube(1)], [1.0])

    @pytest.mark.parametrize("weights", [[0.5], [0.5, 0.6], [1.0, 1e-13]])
    def test_rejected(self, weights):
        comps = [UniformCube(1)] * len(weights)
        with pytest.raises(ValueError, match="weights"):
            Mixture(comps, weights)


def test_mixture_ball_prob_is_the_weighted_component_tables():
    # seeded points inside and outside both supports; bit for bit
    comps, w = [UniformCircle(1.0), UniformCube(2)], np.array([0.35, 0.65])
    X = np.vstack([np.random.default_rng(5).uniform(-1.3, 1.3, size=(24, 2)), [[0.5, 0.5], [1.0, 0.0], [0.0, 0.0]]])
    radii = np.linspace(0.05, 0.4, 8)
    got = Mixture(comps, w).ball_prob_table(radii, X)
    want = w[0] * comps[0].ball_prob_table(radii, X) + w[1] * comps[1].ball_prob_table(radii, X)
    assert np.array_equal(got, want)


def test_mixture_voldim_is_min():
    mix = Mixture([UniformCircle(1.0), UniformCube(2)], [0.5, 0.5])
    assert mix.analytic_voldim == 1.0
    assert PointMasses([[0.0, 0.0]]).analytic_voldim == 0.0
    assert UnboundedBall(2, 1.0).analytic_voldim == 1.0
    assert UniformCube(3).analytic_voldim == 3.0


def test_distribution_from_config():
    d = distribution_from_config({"kind": "unbounded_ball", "dim": 2, "beta": 1.0})
    assert isinstance(d, UnboundedBall)
    m = distribution_from_config(
        {
            "kind": "mixture",
            "components": [{"kind": "uniform_circle", "radius": 1.0}, {"kind": "uniform_cube", "dim": 2}],
            "weights": [0.5, 0.5],
        }
    )
    assert isinstance(m, Mixture)
    with pytest.raises(ValueError):
        distribution_from_config({"kind": "gamma"})


def test_write_sample_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("KDERATES_WORKERS", "1")
    cfg = {
        "mode": "rate_in_h",
        "distribution": {"kind": "uniform_cube", "dim": 2},
        "kernel": {"form": "gaussian", "dim": 2},
        "n_list": [10],
        "h_grid": {"l_n": 0.2, "n_points": 1},
        "x_grid": {"target_size": 4},
        "base_seed": 1,
        "export_sample_csv": True,
    }
    run(ExperimentConfig.from_dict(cfg), tmp_path)
    pts = UniformCube(2).sample(10, seed=1)
    lines = (tmp_path / "sample.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 11
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(parsed, pts, atol=0, rtol=0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        UnboundedBall(2, 2.5)
    with pytest.raises(ValueError):
        UnboundedBall(2, 0.0)
    with pytest.raises(ValueError):
        PointMasses([[0.0], [1.0]], [0.5, 0.6])
    with pytest.raises(ValueError):
        Mixture([UniformCube(1), UniformCube(2)], [0.5, 0.5])
    with pytest.raises(ValueError):
        UniformCube(2).sample(0, seed=1)
    with pytest.raises(ValueError):
        UniformCube(2).ball_prob(np.zeros(2), -0.1)
    with pytest.raises(ValueError, match="dim must be an integer, got 2.5"):
        UniformCube(2.5)
    with pytest.raises(ValueError, match="dim must be an integer, got 2.5"):
        UnboundedBall(2.5, 1.0)
    with pytest.raises(ValueError, match="manifold_dim must be an integer, got 1.5"):
        UniformSphere(1.5)
    with pytest.raises(ValueError, match="n must be an integer, got 100.5"):
        UniformCube(2).sample(100.5, 1)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        UniformCube(2).sample(100, 1.5)


def test_sphere_lattice_needs_manifold_dim_at_most_2():
    # S^3 has oracles but no lattice: its points would lie in R^3, not R^4
    with pytest.raises(ValueError, match="manifold_dim <= 2"):
        UniformSphere(3).lattice(50)
    for q in (1, 2):
        assert UniformSphere(q).lattice(50)[0].shape[1] == q + 1
