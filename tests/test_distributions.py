import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from kderates.distributions import (
    Mixture,
    PointMasses,
    UnboundedBall,
    UniformCircle,
    UniformCube,
    UniformSphere,
    distribution_from_config,
)
from kderates.harness import ExperimentConfig, run
from kderates.kernels import Kernel


GAUSS1 = Kernel.gaussian(1)
GAUSS2 = Kernel.gaussian(2)


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
        dist = UniformCircle(1.0)
        x = np.array([1.0, 0.0])
        h, k = 0.25, 2.0
        got = dist.moment_k(GAUSS2, x, h, k)

        def g(rr):
            return GAUSS2.profile(np.asarray(rr) / h) ** k

        direct, _ = dist._expect_radial(x, g)
        assert got == pytest.approx(direct, rel=1e-8)

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
    ("sphere2", lambda: UniformSphere(2), [None], 2),
    ("ball", lambda: UnboundedBall(2, 1.0), [None, (0, 1)], 1),
    ("point_masses", lambda: PointMasses([[0.0, 0.0], [0.5, 0.25]], [0.25, 0.75]), [None, (1, 0), (2, 1)], 6),
    ("mixture", lambda: Mixture([UniformCircle(1.0), UniformCube(2)], [0.4, 0.6]), [None, (1, 1)], 6),
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

    @pytest.mark.parametrize("h", [0.0, -0.1, float("nan")])
    @pytest.mark.parametrize("dist", _EXACT_TABLE_KINDS, ids=["cube2", "circle", "point_masses", "mixture"])
    def test_table_rejects_nonpositive_h(self, dist, h):
        with pytest.raises(ValueError, match="positive"):
            dist.smoothed_derivative_table(GAUSS2, None, [0.2, h], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="positive"):
            dist.smoothed_derivative_table(GAUSS2, (1, 0), [h], np.zeros((3, 2)))

    @pytest.mark.parametrize("dist", _EXACT_TABLE_KINDS, ids=["cube2", "circle", "point_masses", "mixture"])
    def test_table_rejects_wrong_point_dimension(self, dist):
        with pytest.raises(ValueError, match="shape"):
            dist.smoothed_density_table(GAUSS2, [0.2], np.zeros((4, 3)))
        with pytest.raises(ValueError, match="shape"):
            dist.smoothed_derivative(GAUSS2, None, 0.2, np.zeros(3))

    def test_table_rejects_unsupported_derivative_order(self):
        epan1 = Kernel.epanechnikov(1)
        for dist in [PointMasses([[0.0]], [1.0]), UniformCube(1), Mixture([PointMasses([[0.0]], [1.0])], [1.0])]:
            with pytest.raises(ValueError, match="unsupported"):
                dist.smoothed_derivative_table(epan1, (1,), [0.3], np.array([[0.2]]))
            with pytest.raises(ValueError, match="unsupported"):
                dist.smoothed_derivative(epan1, (1,), 0.3, np.array([0.2]))

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


class TestMixtureWeights:
    def test_single_component_weight_one(self):
        Mixture([UniformCube(1)], [1.0])

    @pytest.mark.parametrize("weights", [[0.5], [0.5, 0.6], [1.0, 1e-13]])
    def test_rejected(self, weights):
        comps = [UniformCube(1)] * len(weights)
        with pytest.raises(ValueError, match="weights"):
            Mixture(comps, weights)


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
