import math

import numpy as np
import pytest

from kderates.dimension import (
    assumption_check,
    box_dimension_estimate,
    correlation_dimension_estimate,
    dyadic_radii,
    fit_loglog,
    voldim_estimate,
    voldim_sweep,
    write_radius_sweep_csv,
    _empirical_counts,
)
from kderates.distributions import Mixture, PointMasses, UnboundedBall, UniformCircle, UniformCube
from kderates.kde import make_eval_grid


def rigid_motion(points, seed=0):
    rng = np.random.default_rng(seed)
    d = points.shape[1]
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    shift = rng.normal(size=d)
    return points @ q.T + shift


class TestVoldim:
    def test_ball_oracle_exact_slope(self):
        dist = UnboundedBall(2, 1.0)
        grid = make_eval_grid(dist, 40)
        radii = dyadic_radii(dist.support_diameter, 2, 8)
        fit = voldim_estimate(dist, grid, radii)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)
        assert fit.residual <= 1e-10

    def test_point_mass_slope_zero(self):
        dist = PointMasses([[0.0, 0.0]], [1.0])
        radii = np.geomspace(0.01, 0.5, 6)
        fit = voldim_estimate(dist, dist.special_points(), radii)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_cube_oracle(self):
        dist = UniformCube(2)
        grid = make_eval_grid(dist, 25)
        radii = dyadic_radii(dist.support_diameter, 3, 7)
        fit = voldim_estimate(dist, grid, radii)
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_mixture_empirical_near_min(self):
        mix = Mixture([UniformCircle(1.0), UniformCube(2)], [0.5, 0.5])
        sample = mix.sample(100_000, seed=31)
        grid = make_eval_grid(mix, 120)
        radii = np.geomspace(0.003, 0.03, 8)
        fit = voldim_estimate(sample, grid, radii)
        assert fit.slope == pytest.approx(1.0, abs=0.15)

    def test_zero_prob_error_names_radius(self):
        dist = PointMasses([[0.0], [10.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"at x = 0\.1"):
            voldim_estimate(dist, np.array([[5.0]]), np.geomspace(0.01, 0.1, 5))

    def test_sweep_monotone_and_sources(self):
        dist = UniformCircle(1.0)
        grid = make_eval_grid(dist, 32)
        radii = np.geomspace(0.01, 0.3, 6)
        sweep = voldim_sweep(dist, grid, radii)
        assert sweep.source == "oracle"
        assert np.all(np.diff(sweep.sup_probs) <= 1e-12)  # descending radii
        emp = voldim_sweep(dist.sample(5000, seed=3), grid, radii)
        assert emp.source.startswith("empirical")

    def test_empirical_matches_oracle_as_n_grows(self):
        dist = UniformCircle(1.0)
        grid = make_eval_grid(dist, 64)
        radii = dyadic_radii(dist.support_diameter, 3, 6)
        errors = []
        for n in (1_000, 10_000, 100_000):
            errs = []
            for rep in range(5):
                fit = voldim_estimate(dist.sample(n, seed=500 + rep), grid, radii)
                errs.append(abs(fit.slope - 1.0))
            errors.append(np.median(errs))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.1

    def test_isometry_invariance_empirical(self):
        dist = UniformCircle(1.0)
        sample = dist.sample(20_000, seed=8)
        grid = make_eval_grid(dist, 48).points
        radii = np.geomspace(0.02, 0.3, 6)
        base = voldim_estimate(sample, grid, radii)
        moved = voldim_estimate(rigid_motion(sample, 1), rigid_motion(grid, 1), radii)
        assert moved.slope == pytest.approx(base.slope, abs=1e-10)


def brute_sq_dists(X, sample):
    """Squared distances summed coordinate by coordinate, shape (len(X), len(sample))."""
    return sum((X[:, None, k] - sample[None, :, k]) ** 2 for k in range(sample.shape[1]))


def gap_point_2d(x0, r, seed=0):
    """A 2-D point whose d2 to x0 lies strictly between fl(nextafter(r, 0)^2) and fl(r^2)."""
    lo, hi = np.nextafter(r, 0.0) ** 2, r * r
    t = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 10_000)
    pts = x0 + r * np.stack([np.cos(t), np.sin(t)], axis=-1)
    d2 = brute_sq_dists(x0[None, :], pts)[0]
    inside = np.flatnonzero((d2 > lo) & (d2 < hi))
    assert inside.size, "no gap point found"
    return pts[inside[0]]


def sphere_case(d):
    """A uniform bulk plus points at exactly r (excluded), at r/2 and, in 2-D, in the rounding gap
    (included): (sample, X, radii, the count at X[0] and r)."""
    rng = np.random.default_rng(40 + d)
    r = 0.3  # fl(nextafter(r, 0)^2) is at least 2 ulps below fl(r^2)
    assert np.nextafter(r * r, 0.0) > np.nextafter(r, 0.0) ** 2
    x0 = np.zeros(d)
    eye = np.eye(d)
    special = [r * eye, -r * eye, 0.5 * r * eye]
    if d == 2:
        special.append(gap_point_2d(x0, r)[None, :])
    bulk = rng.uniform(-0.6, 0.6, (2000, d))
    sample = np.vstack(special + [bulk])
    X = np.vstack([x0, rng.uniform(-0.6, 0.6, (30, d))])
    n_inside = d + (d == 2)
    bulk_inside = np.count_nonzero(brute_sq_dists(x0[None, :], bulk)[0] < r * r)
    return sample, X, np.array([r, 0.05, 0.125, 0.6]), n_inside + bulk_inside


def lattice(d, step, k):
    """The k^d points step * (i_1, ..., i_d), 0 <= i_j < k."""
    return step * np.stack(np.meshgrid(*[np.arange(k)] * d, indexing="ij"), axis=-1).reshape(-1, d).astype(float)


_ATOMS = np.array([[0.0, 0.0], [0.25, 0.0], [0.0, 0.5]])
_LINE = np.linspace(0.0, 1.0, 2001)

# duplicated and flat samples, and unsorted repeated radii: (sample, X, radii)
DEGENERATE_SAMPLES = {
    "identical": lambda: (
        np.full((500, 2), 0.25),
        np.array([[0.25, 0.25], [0.25, 0.5], [0.0, 0.0]]),
        np.array([0.25, 0.1, 0.5, 1e-9, np.sqrt(0.125)]),
    ),
    "atoms": lambda: (
        _ATOMS[np.random.default_rng(1).integers(0, 3, 3000)],
        np.vstack([_ATOMS, _ATOMS.mean(axis=0), [0.125, 0.0]]),
        np.array([0.25, 0.5, 0.125, np.sqrt(0.3125), 1.0]),
    ),
    "point_masses": lambda: (
        PointMasses(_ATOMS, [0.5, 0.3, 0.2]).sample(2000, 5),
        np.vstack([_ATOMS, np.random.default_rng(2).uniform(-0.2, 0.6, (10, 2))]),
        np.array([0.25, 0.5, 0.05, 0.3]),
    ),
    "collinear": lambda: (
        np.vstack([np.c_[_LINE, np.full_like(_LINE, 0.3)], np.c_[_LINE, 2.0 * _LINE]]),
        np.array([[0.5, 0.3], [0.5, 0.55], [0.25, 0.5], [0.0, 0.0], [1.0, 0.3]]),
        np.array([0.25, 0.0005, 0.125, 0.5, 0.01]),
    ),
    "lattice": lambda: (lattice(2, 0.125, 9), lattice(2, 0.125, 9)[::5], np.array([0.125, 0.25, 0.375, 0.5, np.sqrt(0.03125)])),
    "atoms_3d": lambda: (
        np.repeat(lattice(3, 0.25, 2), 200, axis=0),
        np.vstack([lattice(3, 0.25, 2), [0.125, 0.125, 0.125]]),
        np.array([0.25, 0.25 * np.sqrt(2.0), 0.25 * np.sqrt(3.0), 0.125 * np.sqrt(3.0)]),
    ),
    "radii_unsorted": lambda: (
        np.random.default_rng(3).uniform(-0.6, 0.6, (2000, 2)),
        np.vstack([np.zeros(2), np.random.default_rng(4).uniform(-0.6, 0.6, (20, 2))]),
        np.array([0.3, 0.05, 0.3, 0.6, 0.05, 0.125, 0.6]),
    ),
}


class TestEmpiricalCounts:
    @pytest.mark.parametrize("case", [1, 2, 3, *DEGENERATE_SAMPLES])
    def test_tree_matches_brute_force(self, case):
        if isinstance(case, int):
            sample, X, radii, inside = sphere_case(case)
        else:
            (sample, X, radii), inside = DEGENERATE_SAMPLES[case](), None
        got = _empirical_counts(sample, X, radii)
        d2 = brute_sq_dists(X, sample)
        want = np.array([(d2 < rr * rr).sum(axis=1) for rr in radii])
        assert np.array_equal(got, want)
        if inside is not None:
            assert got[0, 0] == inside

    def test_mismatched_dimensions_raise(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            voldim_sweep(rng.random((1000, 2)), [[0.5], [0.2]], [0.1, 0.2])


class TestLineSamples:
    def test_flat_array_is_points_on_a_line(self):
        t = np.linspace(0.0, 1.0, 2000)
        deltas = np.geomspace(0.01, 0.1, 5)
        radii = np.geomspace(0.005, 0.05, 5)
        assert box_dimension_estimate(t, deltas) == box_dimension_estimate(t[:, None], deltas)
        assert box_dimension_estimate(t, deltas).slope == pytest.approx(1.0, abs=0.05)
        assert correlation_dimension_estimate(t, radii) == correlation_dimension_estimate(t[:, None], radii)
        grid = np.array([[0.0], [0.37], [0.5]])
        flat, column = voldim_sweep(t, grid, radii), voldim_sweep(t[:, None], grid, radii)
        assert np.array_equal(flat.sup_probs, column.sup_probs) and flat.source == column.source


class TestAssumptionCheck:
    def test_ball_center_ratio_unity(self):
        dist = UnboundedBall(2, 1.0)
        radii = [2.0**-j for j in range(1, 9)]
        out = assumption_check(dist, np.zeros((1, 2)), radii, nu=1.0)
        assert out["max_ratio"] == pytest.approx(1.0, abs=1e-9)
        assert out["min_liminf_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_nu_zero_gives_raw_probabilities(self):
        dist = UniformCube(2)
        out = assumption_check(dist, make_eval_grid(dist, 9), [0.25, 0.125, 0.0625, 0.03125], nu=0.0)
        assert out["max_ratio"] <= 1.0 + 1e-12

    def test_circle_ratio_stable(self):
        dist = UniformCircle(1.0)
        radii = [2.0**-j for j in range(3, 9)]
        out = assumption_check(dist, make_eval_grid(dist, 32), radii, nu=1.0)
        assert out["max_ratio"] < 2.0 * out["min_liminf_ratio"]
        assert out["min_liminf_ratio"] > 0


def greedy_cover_reference(sample, delta):
    """Lowest-index greedy cover by closed balls, rescanning the uncovered set."""
    alive = np.arange(sample.shape[0])
    count = 0
    while alive.size:
        center = sample[alive[0]]
        count += 1
        d2 = ((sample[alive] - center) ** 2).sum(axis=1)
        alive = alive[d2 > delta * delta]
    return count


def loglog_fit_tuple(lx, counts):
    ly = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept), float(np.max(np.abs(ly - (slope * lx + intercept))))


class TestBoxDimension:
    def test_covers_match_reference(self):
        rng = np.random.default_rng(12)
        g = 0.125 * np.arange(12)
        lattice = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)  # points at exactly delta
        sample = np.vstack([lattice, rng.random((3000, 2)) * 1.4])
        deltas = np.array([1.0, 0.5, 0.25, 0.125, 0.05])
        fit = box_dimension_estimate(sample, deltas)
        want = loglog_fit_tuple(-np.log(deltas), [greedy_cover_reference(sample, dl) for dl in deltas])
        assert (fit.slope, fit.intercept, fit.residual) == want

    def test_segment_in_plane(self):
        t = np.linspace(0.0, 1.0, 20_000)
        sample = np.stack([t, 0.3 * np.ones_like(t)], axis=-1)
        fit = box_dimension_estimate(sample, np.geomspace(0.005, 0.08, 6))
        assert fit.slope == pytest.approx(1.0, abs=0.15)

    def test_single_repeated_point(self):
        sample = np.zeros((500, 2))
        with pytest.warns(UserWarning):
            fit = box_dimension_estimate(sample, np.geomspace(0.01, 0.1, 5))
        assert fit.slope == 0.0

    def test_cube2_slope(self):
        sample = UniformCube(2).sample(100_000, seed=21)
        fit = box_dimension_estimate(sample, np.geomspace(0.03, 0.25, 6))
        assert fit.slope == pytest.approx(2.0, abs=0.2)

    def test_isometry_invariance(self):
        sample = UniformCircle(1.0).sample(5_000, seed=6)
        deltas = np.geomspace(0.02, 0.2, 5)
        a = box_dimension_estimate(sample, deltas)
        b = box_dimension_estimate(rigid_motion(sample, 2), deltas)
        assert b.slope == pytest.approx(a.slope, abs=1e-10)


class TestCorrelationDimension:
    @pytest.mark.parametrize("kind", ["lattice", "random3d"])
    def test_pair_counts_match_brute_force(self, kind):
        if kind == "lattice":  # pairs at exactly each radius, which count
            g = 0.25 * np.arange(12)
            sample = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
            radii = np.array([0.25, 0.5, 0.75, 1.0])
        else:
            sample = np.random.default_rng(13).random((400, 3))
            radii = np.geomspace(0.05, 0.5, 6)
        n = sample.shape[0]
        d2 = brute_sq_dists(sample, sample)
        iu = np.triu_indices(n, 1)
        pairs = np.array([(d2[iu] <= r * r).sum() for r in radii])
        if kind == "lattice":
            assert pairs[0] == 2 * 12 * 11
        fit = correlation_dimension_estimate(sample, radii)
        assert (fit.slope, fit.intercept, fit.residual) == loglog_fit_tuple(np.log(radii), pairs / (n * (n - 1) / 2.0))

    def test_circle_slope(self):
        sample = UniformCircle(1.0).sample(20_000, seed=22)
        fit = correlation_dimension_estimate(sample, np.geomspace(0.01, 0.2, 8))
        assert fit.slope == pytest.approx(1.0, abs=0.15)

    def test_two_atoms_constant_fraction(self):
        sample = np.array([[0.0, 0.0], [1.0, 0.0]] * 100)
        # radii below the gap: only the zero-distance duplicate pairs count
        fit = correlation_dimension_estimate(sample, np.geomspace(0.05, 0.5, 5))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_cube2_slope(self):
        sample = UniformCube(2).sample(20_000, seed=23)
        fit = correlation_dimension_estimate(sample, np.geomspace(0.02, 0.2, 8))
        assert fit.slope == pytest.approx(2.0, abs=0.2)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            correlation_dimension_estimate(np.zeros((50, 2)), np.geomspace(0.01, 0.1, 5))

    def test_isometry_invariance(self):
        sample = UniformCube(2).sample(3_000, seed=7)
        radii = np.geomspace(0.03, 0.3, 6)
        a = correlation_dimension_estimate(sample, radii)
        b = correlation_dimension_estimate(rigid_motion(sample, 3), radii)
        assert b.slope == pytest.approx(a.slope, abs=1e-10)


class TestOrdering:
    def test_voldim_below_box_dimension(self):
        # d_vol <= box dimension (up to estimator slack) on the built-ins
        for dist, n in [(UniformCircle(1.0), 20_000), (UniformCube(2), 20_000)]:
            sample = dist.sample(n, seed=41)
            grid = make_eval_grid(dist, 48)
            vfit = voldim_estimate(dist, grid, dyadic_radii(dist.support_diameter, 3, 7))
            bfit = box_dimension_estimate(sample, np.geomspace(0.03, 0.2, 5))
            assert vfit.slope <= bfit.slope + 0.3

    def test_mixture_at_most_component_min(self):
        mix = Mixture([UniformCircle(1.0), UniformCube(2)], [0.5, 0.5])
        grid = make_eval_grid(mix, 96)
        radii = np.geomspace(0.002, 0.02, 8)
        mfit = voldim_estimate(mix, grid, radii)
        comp_fits = [
            voldim_estimate(c, make_eval_grid(c, 48), radii).slope for c in mix.components
        ]
        assert mfit.slope <= min(comp_fits) + 0.15


class TestFitPlumbing:
    def test_fit_loglog_exact_power_law(self):
        r = np.geomspace(0.01, 1.0, 10)
        fit = fit_loglog(r, 3.0 * r**1.7)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_window_restriction(self):
        r = np.geomspace(0.01, 1.0, 20)
        y = np.where(r < 0.1, r, r**2) * 5.0
        fit = fit_loglog(r, y, window=(0.01, 0.09))
        assert fit.slope == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog([1, 2, 3], [1, 2, 3])

    def test_csv_exports(self, tmp_path):
        dist = UniformCircle(1.0)
        sweep = voldim_sweep(dist, make_eval_grid(dist, 16), np.geomspace(0.05, 0.3, 5))
        p1 = tmp_path / "sweep.csv"
        write_radius_sweep_csv(sweep, p1)
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "r,sup_prob"
        assert len(lines) == 6
