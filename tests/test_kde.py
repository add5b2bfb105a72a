import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

import kderates
from kderates.distributions import PointMasses, UnboundedBall, UniformCircle, UniformCube
from kderates.kde import (
    BandwidthGrid,
    EvalGrid,
    kde_deriv_eval,
    kde_eval,
    kde_table,
    make_eval_grid,
    sup_deviation,
)
from kderates.kernels import Kernel

GAUSS1 = Kernel.gaussian(1)
GAUSS2 = Kernel.gaussian(2)


class TestKdeEval:
    def test_single_point_at_center(self):
        sample = np.array([[0.3, 0.4]])
        h = 0.5
        assert kde_eval(sample, GAUSS2, h, [0.3, 0.4]) == pytest.approx(GAUSS2.eval([0.0, 0.0]) / h**2, rel=1e-12)

    def test_compact_kernel_far_from_sample(self):
        kern = Kernel.uniform(1)
        sample = np.array([[0.0], [0.1], [0.2]])
        assert kde_eval(sample, kern, 0.05, [0.9]) == 0.0

    def test_hand_computed_three_term_sum(self):
        sample = np.array([[-0.4], [0.1], [0.7]])
        h = 0.5
        # independent hand evaluation of (1/(3h)) sum phi((x - X_i)/h)
        expected = 0.0
        for xi in (-0.4, 0.1, 0.7):
            u = (0.0 - xi) / h
            expected += math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        expected /= 3 * h
        assert kde_eval(sample, GAUSS1, h, [0.0]) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kde_eval(np.zeros((3, 2)), GAUSS1, 0.3, [0.0])

    def test_duplicating_sample_is_noop(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(size=(50, 2))
        doubled = np.vstack([sample, sample])
        x = np.array([0.2, -0.1])
        a = kde_eval(sample, GAUSS2, 0.4, x)
        b = kde_eval(doubled, GAUSS2, 0.4, x)
        assert b == pytest.approx(a, rel=1e-14)

    def test_near_zero_bandwidth_guard(self):
        sample = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            kde_eval(sample, GAUSS1, 1e-12, [0.5])

    @given(st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_by_sup_over_h(self, h, seed):
        rng = np.random.default_rng(seed)
        sample = rng.normal(size=(20, 1))
        x = rng.normal(size=1)
        val = kde_eval(sample, GAUSS1, h, x)
        assert 0.0 <= val <= GAUSS1.sup_norm / h + 1e-12


class TestKdeDeriv:
    def test_zeroth_order_reduces(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(size=(30, 2))
        x = np.array([0.1, 0.2])
        assert kde_deriv_eval(sample, GAUSS2, (0, 0), 0.3, x) == kde_eval(sample, GAUSS2, 0.3, x)

    def test_derivative_at_single_atom(self):
        sample = np.array([[0.5]])
        assert kde_deriv_eval(sample, GAUSS1, (1,), 0.3, [0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_difference_50_points(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(size=(40, 1)) * 0.5
        h, eps = 0.3, 1e-5
        for _ in range(50):
            x = float(rng.normal() * 0.8)
            fd = (kde_eval(sample, GAUSS1, h, [x + eps]) - kde_eval(sample, GAUSS1, h, [x - eps])) / (2 * eps)
            assert kde_deriv_eval(sample, GAUSS1, (1,), h, [x]) == pytest.approx(fd, abs=1e-5)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            kde_deriv_eval(np.zeros((2, 1)), Kernel.epanechnikov(1), (1,), 0.3, [0.0])


class TestBatchConsistency:
    def test_batch_equals_pointwise_loop_bitwise(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 3))
            kern = [Kernel.gaussian, Kernel.epanechnikov, Kernel.triangular][trial % 3](d)
            sample = rng.normal(size=(n, d))
            X = rng.normal(size=(int(rng.integers(1, 6)), d))
            hs = np.geomspace(0.2, 1.0, int(rng.integers(1, 4)))
            table = kde_table(sample, kern, hs, X)
            for i, h in enumerate(hs):
                for j in range(X.shape[0]):
                    assert table[i, j] == kde_eval(sample, kern, float(h), X[j])

    def test_derivative_batch_equals_pointwise(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(size=(25, 2))
        X = rng.normal(size=(7, 2))
        hs = np.array([0.3, 0.6])
        table = kde_table(sample, GAUSS2, hs, X, s=(1, 0))
        for i, h in enumerate(hs):
            for j in range(X.shape[0]):
                assert table[i, j] == kde_deriv_eval(sample, GAUSS2, (1, 0), float(h), X[j])

    # n > 8192: several sample blocks, and h small enough that points skip blocks beyond the kernel's reach
    @pytest.mark.parametrize(
        "kern, s",
        [(GAUSS1, (0,)), (GAUSS1, (1,)), (GAUSS2, (0, 0)), (GAUSS2, (1, 0)), (Kernel.epanechnikov(2), None)],
        ids=["gauss1", "gauss1_s1", "gauss2", "gauss2_s10", "epanechnikov2"],
    )
    def test_batch_equals_pointwise_with_skipped_blocks(self, kern, s):
        d = kern.dim
        rng = np.random.default_rng(5 + d)
        sample = rng.random((20_000, d))
        # random points (no product lattice), some outside the sample's range, and one far away
        X = np.vstack([rng.random((11, d)) * 1.2 - 0.1, np.full(d, 3.0)])
        hs = np.array([0.005, 0.01, 0.05, 0.3])
        table = kde_table(sample, kern, hs, X, s=s)
        for i, h in enumerate(hs):
            for j in range(X.shape[0]):
                assert table[i, j] == kde_deriv_eval(sample, kern, s, float(h), X[j])


def _direct_gauss_table(sample, h_values, X, s):
    """D^s p-hat by a double loop over (h, x): prod_j (-1)^s_j He_s_j(u_j) phi(u_j), summed over the sample."""
    n, d = sample.shape
    out = np.empty((len(h_values), X.shape[0]))
    for i, h in enumerate(h_values):
        for j, x in enumerate(X):
            u = (x - sample) / h
            terms = np.exp(-0.5 * (u * u).sum(axis=1)) / (2.0 * math.pi) ** (d / 2.0)
            for k, order in enumerate(s):
                terms = terms * hermite_e.hermeval(u[:, k], [0.0] * order + [(-1.0) ** order])
            out[i, j] = terms.sum() / (n * h ** (d + sum(s)))
    return out


class TestGaussianTableVsDirectSums:
    H = (0.01, 0.03, 0.05, 0.4)

    def _check(self, n, m, s, seed):
        d = len(s)
        rng = np.random.default_rng(seed)
        sample = rng.random((n, d))
        X = rng.random((m, d))
        got = kde_table(sample, Kernel.gaussian(d), self.H, X, s=s)
        want = _direct_gauss_table(sample, self.H, X, s)
        for i in range(len(self.H)):
            assert np.abs(got[i] - want[i]).max() <= 1e-12 * np.abs(want[i]).max(), f"h = {self.H[i]}"

    # n = 3000, below one sample block, and m = 50: a chunk holds several rows,
    # and 50 is no multiple of the rows per chunk
    @pytest.mark.parametrize("s", [(0,), (0, 0), (1,), (1, 0), (0, 2), (2, 1)])
    def test_several_rows_per_chunk(self, s):
        self._check(3_000, 50, s, seed=sum(s) + 10 * len(s))

    # n = 70000: eight whole sample blocks and a shorter last one
    @pytest.mark.parametrize("s", [(0, 0), (1,), (2, 1)])
    def test_several_sample_blocks(self, s):
        self._check(70_000, 5, s, seed=7 + sum(s))

    # the rate campaigns' product lattices, special points included, plus one
    # point far outside both supports, where every pair is beyond the Gaussian's
    # negligible radius at h = 0.01
    LATTICES = {"cube2": (UniformCube(2), 225), "ball": (UnboundedBall(2, 1.0), 200)}
    FAR = (3.0, 3.0)

    def _check_lattice(self, name, n, s, cols):
        dist, size = self.LATTICES[name]
        X = np.vstack([make_eval_grid(dist, size).points, self.FAR])
        sample = dist.sample(n, seed=n + 10 * sum(s))
        got = kde_table(sample, GAUSS2, self.H, X, s=s)
        want = _direct_gauss_table(sample, self.H, X[cols], s)
        for i in range(len(self.H)):
            assert np.abs(got[i, cols] - want[i]).max() <= 1e-12 * np.abs(want[i]).max(), f"h = {self.H[i]}"
        if s == (0, 0):
            far = got[self.H.index(0.01), -1]
            assert math.isfinite(far) and far >= 0.0

    @pytest.mark.parametrize("name", sorted(LATTICES))
    @pytest.mark.parametrize("s", [(0, 0), (1, 0), (0, 2), (2, 1)])
    def test_lattice_grid(self, name, s):
        self._check_lattice(name, 3_000, s, cols=slice(None))

    # many sample blocks; the direct double loop runs on every 7th point and the far one
    @pytest.mark.parametrize("name", sorted(LATTICES))
    @pytest.mark.parametrize("s", [(0, 0), (2, 1)])
    def test_lattice_grid_large_sample(self, name, s):
        m = make_eval_grid(*self.LATTICES[name]).size
        self._check_lattice(name, 70_000, s, cols=np.r_[0:m:7, m])


@pytest.mark.parametrize("s", [(0,), (1,), (2,)])
def test_gaussian_skipped_mass_within_bound(s):
    # block 0 holds 8192 points just beyond 10h of x = 0, block 1 far points; x = 0
    # skips both, so its value is 0 while the direct sum is positive and within the
    # bound (10 + sqrt|s|)^|s| e^-50 K(0) / h^(d+|s|) stated in kde.py
    h = 0.01
    near = np.linspace(10.0 * h * (1.0 + 1e-9), 10.0 * h * 1.001, 8192)
    sample = np.concatenate([near, np.linspace(5.0, 6.0, 8192)])[:, None]
    X = np.array([[0.0], [0.1]])
    got = kde_table(sample, GAUSS1, [h], X, s=s)[0]
    want = _direct_gauss_table(sample, [h], X, s)[0]
    assert got[0] == 0.0
    bound = (10.0 + math.sqrt(sum(s))) ** sum(s) * math.exp(-50.0) * GAUSS1.sup_norm / h ** (1 + sum(s))
    assert 0.0 < abs(want[0]) <= bound
    # x = 0.1 reaches block 0 and takes all of it
    assert abs(got[1] - want[1]) <= 1e-12 * abs(want[1])


def _direct_compact_table(sample, form, h_values, X):
    """p-hat by a double loop over (h, x) for the Epanechnikov or the uniform kernel in d = 2."""
    n = sample.shape[0]
    out = np.empty((len(h_values), X.shape[0]))
    for i, h in enumerate(h_values):
        for j, x in enumerate(X):
            u2 = ((x - sample) ** 2).sum(axis=1) / (h * h)
            if form == "epanechnikov":
                k = 2.0 / math.pi * np.maximum(1.0 - u2, 0.0)
            else:
                k = (u2 <= 1.0) / math.pi
            out[i, j] = k.sum() / (n * h * h)
    return out


# n below one sample block, and over several blocks with a shorter last one
@pytest.mark.parametrize("n", [3_000, 70_000])
@pytest.mark.parametrize("form", ["epanechnikov", "uniform"])
def test_compact_kernel_table_vs_direct_sums(form, n):
    rng = np.random.default_rng(n)
    sample, X = rng.random((n, 2)), rng.random((7, 2))
    h_values = (0.05, 0.2, 0.6)
    got = kde_table(sample, getattr(Kernel, form)(2), h_values, X)
    want = _direct_compact_table(sample, form, h_values, X)
    for i in range(len(h_values)):
        assert np.abs(got[i] - want[i]).max() <= 1e-12 * np.abs(want[i]).max(), f"h = {h_values[i]}"


def _closed_profile(r):
    r = np.asarray(r, dtype=float)
    return np.where(r <= 1.0, 1.0 - 0.5 * r, 0.0)


class TestCompactBoundaries:
    """Sample points at distance exactly h and h/2: the r^2 profile keeps each kernel's boundary."""

    # (kernel, its profile as a function of r)
    CASES = [
        pytest.param(k, k.profile, id=k.form)
        for k in (Kernel.epanechnikov(2), Kernel.uniform(2), Kernel.triangular(2))
    ] + [pytest.param(Kernel.custom_radial(2, _closed_profile, support_radius=1.0), _closed_profile, id="custom")]

    @pytest.mark.parametrize("kern, profile", CASES)
    @pytest.mark.parametrize("h", [0.25, 0.3])
    def test_equals_sum_of_profile_in_r(self, kern, profile, h):
        x = np.array([0.0, 0.0])
        offsets = [h, h / 2.0, 2.0 * h]
        sample = np.array([[c * sign, 0.0] for c in offsets for sign in (1, -1)] + [[0.0, c] for c in offsets])
        r = np.linalg.norm(x - sample, axis=1)
        want = profile(r / h).sum() / (sample.shape[0] * h**2)
        assert kde_table(sample, kern, [h], x[None, :])[0, 0] == want
        # the points at distance exactly h are inside the closed balls of the uniform and custom kernels
        if kern.form in ("uniform", "custom_radial"):
            assert np.count_nonzero(profile(r / h)) == 6

    @pytest.mark.parametrize("h", [0.25, 0.3])
    def test_closed_ball_points_on_block_edges(self, h):
        # blocks of 8192 after the strip order: block 0 ends at -h, block 1 starts at +h,
        # so x = 0 is exactly h from both blocks' x_0 ranges and must take both points
        far = np.linspace(3.0, 4.0, 8191)
        sample = np.concatenate([-far, [-h, h], far])[:, None]
        kern = Kernel.uniform(1)
        X = np.array([[0.0], [2.0 * h]])
        table = kde_table(sample, kern, [h], X)
        assert table[0, 0] == 2 * kern.sup_norm / (sample.shape[0] * h)
        assert table[0, 1] == kern.sup_norm / (sample.shape[0] * h)
        for j in range(X.shape[0]):
            assert table[0, j] == kde_eval(sample, kern, h, X[j])


# the cube2 lattice takes the product-lattice path, the circle the direct one
@pytest.mark.parametrize("dist, size", [(UniformCube(2), 225), (UniformCircle(1.0), 128)], ids=["cube2", "circle"])
def test_kde_table_memory_stays_small(dist, size):
    # the tracemalloc peak of one call: chunk and block buffers, not a pairwise table
    sample = dist.sample(100_000, seed=17)
    X = make_eval_grid(dist, size).points
    h = BandwidthGrid.log_spaced(0.05, 0.4, n_points=12).values
    tracemalloc.start()
    try:
        kde_table(sample, GAUSS2, h, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


_TABLE_BYTES = """
import hashlib, sys
import numpy as np
from kderates.distributions import {dist}
from kderates.kde import kde_table, make_eval_grid
from kderates.kernels import Kernel
dist = {dist}({arg})
sample, X = dist.sample(20_000, seed=23), make_eval_grid(dist, {size}).points
h = np.geomspace(0.05, 0.4, 6)
tables = [kde_table(sample, Kernel.gaussian(2), h, X, s=s) for s in ((0, 0), (1, 1))]
sys.stdout.write(hashlib.sha256(b"".join(t.tobytes() for t in tables)).hexdigest())
"""


def _table_digests(script):
    """The script's output under one and under two OpenBLAS threads."""
    src = str(Path(kderates.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    return digests


# serial and parallel runs must give the same bytes, whatever BLAS thread count a process gets
def test_lattice_table_bytes_independent_of_blas_threads():
    digests = _table_digests(_TABLE_BYTES.format(dist="UniformCube", arg=2, size=225))
    assert digests[0] == digests[1]


# the circle's grid takes the direct loop, whose derivative rows are dot products
def test_direct_table_bytes_independent_of_blas_threads():
    digests = _table_digests(_TABLE_BYTES.format(dist="UniformCircle", arg=1.0, size=128))
    assert digests[0] == digests[1]


class TestIntegration:
    def test_riemann_integral_one_d1(self):
        sample = UniformCube(1).sample(500, seed=5)
        h = 0.15
        grid = np.linspace(-1.0, 2.0, 3001)
        vals = kde_table(sample, GAUSS1, [h], grid.reshape(-1, 1))[0]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)

    def test_riemann_integral_one_d2(self):
        sample = UniformCube(2).sample(400, seed=6)
        h = 0.2
        xs = np.linspace(-1.0, 2.0, 301)
        X, Y = np.meshgrid(xs, xs)
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        vals = kde_table(sample, GAUSS2, [h], pts)[0].reshape(301, 301)
        total = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestGrids:
    def test_bandwidth_grid_log_spacing(self):
        g = BandwidthGrid.log_spaced(0.05, 0.4, n_points=12)
        assert g.values.size == 12
        assert g.l_n == pytest.approx(0.05)
        assert g.h_max == pytest.approx(0.4)
        ratios = g.values[1:] / g.values[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_bandwidth_grid_per_decade(self):
        g = BandwidthGrid.log_spaced(0.01, 1.0, points_per_decade=16)
        assert g.values.size == 33

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([0.2, -0.1]))
        with pytest.raises(ValueError):
            BandwidthGrid.log_spaced(0.0, 1.0)
        with pytest.raises(ValueError):
            EvalGrid(np.zeros((0, 2)), 0.1)
        with pytest.raises(ValueError, match="n_points must be an integer, got 2.5"):
            BandwidthGrid.log_spaced(0.1, 1.0, 2.5)
        with pytest.raises(ValueError, match="target_size must be an integer, got 8.9"):
            make_eval_grid(UniformCircle(1.0), 8.9)

    def test_make_eval_grid_on_support(self):
        dist = UniformCircle(1.0)
        grid = make_eval_grid(dist, 64)
        assert np.allclose(np.linalg.norm(grid.points, axis=1), 1.0)
        assert grid.spacing > 0
        cube = UniformCube(2)
        g2 = make_eval_grid(cube, 100)
        assert np.all((g2.points >= 0) & (g2.points <= 1))
        # covering radius: every support draw is near some grid point
        draws = cube.sample(2000, seed=9)
        dmin = np.sqrt(((draws[:, None, :] - g2.points[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert dmin.max() <= g2.spacing + 1e-9


class TestSupDeviation:
    def test_point_mass_sample_gives_zero(self):
        # power-of-two sample size: pairwise summation of identical kernel
        # values is exact, so p-hat reproduces p_h bit for bit
        dist = PointMasses([[0.0]], [1.0])
        sample = np.zeros((64, 1))
        hg = BandwidthGrid.log_spaced(0.1, 0.5, n_points=5)
        xg = make_eval_grid(dist, 10)
        res = sup_deviation(sample, dist, GAUSS1, hg, xg)
        assert res.value == 0.0

    def test_ray_sup_dominates_single_bandwidth(self):
        dist = UniformCube(1)
        sample = dist.sample(2000, seed=13)
        xg = make_eval_grid(dist, 41)
        ray = BandwidthGrid.log_spaced(0.1, 0.4, n_points=6)
        full = sup_deviation(sample, dist, GAUSS1, ray, xg)
        for h in ray.values:
            single = sup_deviation(sample, dist, GAUSS1, BandwidthGrid.single(float(h)), xg)
            assert full.value >= single.value - 1e-15

    def test_disc_bound_formula(self):
        dist = UniformCube(1)
        sample = dist.sample(100, seed=14)
        xg = EvalGrid(np.linspace(0, 1, 11).reshape(-1, 1), spacing=0.05)
        hg = BandwidthGrid.single(0.2)
        res = sup_deviation(sample, dist, GAUSS1, hg, xg)
        expected = 2 * GAUSS1.lipschitz * 0.05 / 0.2**2
        assert res.disc_bound == pytest.approx(expected, rel=1e-12)

    def test_uniform_kernel_disc_bound_inf(self):
        dist = UniformCube(1)
        sample = dist.sample(100, seed=15)
        kern = Kernel.uniform(1)
        res = sup_deviation(sample, dist, kern, BandwidthGrid.single(0.3), make_eval_grid(dist, 11))
        assert math.isinf(res.disc_bound)

    def test_sup_decreases_with_n(self):
        # median over 20 seeds shrinks as the sample grows
        dist = UniformCube(1)
        xg = make_eval_grid(dist, 41)
        hg = BandwidthGrid.log_spaced(0.1, 0.4, n_points=4)
        medians = []
        for n in (1_000, 10_000, 100_000):
            sups = [sup_deviation(dist.sample(n, seed=100 + r), dist, GAUSS1, hg, xg).value for r in range(20)]
            medians.append(np.median(sups))
        assert medians[0] > medians[1] > medians[2]

    def test_argmax_is_reported(self):
        dist = UniformCircle(1.0)
        sample = dist.sample(500, seed=16)
        hg = BandwidthGrid.log_spaced(0.1, 0.3, n_points=4)
        xg = make_eval_grid(dist, 32)
        res = sup_deviation(sample, dist, GAUSS2, hg, xg)
        assert res.argmax_h in hg.values
        assert res.per_h.size == 4
        assert res.value == res.per_h.max()
