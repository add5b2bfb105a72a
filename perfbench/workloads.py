"""The benchmark's campaigns and workloads.

A campaign is one unit users wait for: a ``kderates.harness.run`` call with
an output directory (what ``kderates simulate|moments|voldim`` do) or one
public estimator call.  Each campaign can

* ``run`` untraced through the public entry point (the timed path);
* ``replay`` the same computation serially, calling the layer functions
  one by one inside spans (the traced path, also the single-threaded
  baseline);
* reduce a result to a ``digest`` that the replay must reproduce bit for
  bit;
* ``check`` its outputs against the reference outputs of the default seed
  and against independent recomputations.

Workloads are built from the seed alone: the same seed gives the same
inputs.  ``work`` is nominal work per execution, computed from input sizes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.spatial import cKDTree

from kderates.dimension import (
    RadiusSweep,
    box_dimension_estimate,
    correlation_dimension_estimate,
    dyadic_radii,
    fit_loglog,
    voldim_sweep,
    write_radius_sweep_csv,
)
from kderates.distributions import distribution_from_config
from kderates.harness import DeviationCell, DeviationReport, ExperimentConfig, run
from kderates.kde import discretization_bound, kde_table, make_eval_grid
from kderates.kernels import MultiIndex

from spans import Tracer

DEFAULT_SEED = 20260811  # the acceptance suite's BASE_SEED
SPOT_RTOL = 1e-8  # brute-force KDE sums in another order than kde_table
FIT_ATOL = 1e-9  # slopes refitted from independently counted inputs
BALL_ATOL = 1e-4  # accuracy target of the certified ball_prob quadrature
MOMENT_RTOL = 1e-6  # relative accuracy target of the certified moment_k quadrature

CUBE1 = {"kind": "uniform_cube", "dim": 1}
CUBE2 = {"kind": "uniform_cube", "dim": 2}
CIRCLE = {"kind": "uniform_circle", "radius": 1.0}
BALL = {"kind": "unbounded_ball", "dim": 2, "beta": 1.0}


def _direct_gauss_sums(sample: np.ndarray, X: np.ndarray, h_values: np.ndarray, orders) -> np.ndarray:
    """D^s p-hat on the (h, x) grid as direct sums of Gaussian terms; shape (H, M).

    D^s phi(u) = prod_j (-1)^k_j He_k_j(u_j) * (2 pi)^(-d/2) exp(-|u|^2 / 2), summed
    over a few evaluation points at a time from squared distances.
    """
    n, d = sample.shape
    order = sum(orders)
    out = np.empty((h_values.size, X.shape[0]))
    rows = max(1, 2**18 // n)
    for lo in range(0, X.shape[0], rows):
        diff = X[lo : lo + rows, None, :] - sample[None, :, :]
        d2 = (diff * diff).sum(axis=-1)
        for i, h in enumerate(h_values):
            terms = np.exp(d2 * (-0.5 / (h * h)))
            for j, k in enumerate(orders):
                if k:
                    coef = np.zeros(k + 1)
                    coef[k] = (-1.0) ** k
                    terms *= np.polynomial.hermite_e.hermeval(diff[..., j] / h, coef)
            out[i, lo : lo + rows] = terms.sum(axis=1) / (n * h ** (d + order) * (2 * math.pi) ** (d / 2))
    return out


def _open_ball_counts(sample: np.ndarray, X: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Brute-force #{i : ||x - X_i|| < r}; shape (len(radii), len(X))."""
    out = np.empty((radii.size, X.shape[0]), dtype=np.int64)
    for j, x in enumerate(X):
        d2 = ((sample - x) ** 2).sum(axis=1)
        out[:, j] = (d2[None, :] < (radii * radii)[:, None]).sum(axis=1)
    return out


def _read_sweep(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1]


def _fit_tuple(fit) -> tuple:
    """A RateFit, or its dict form in a harness report, as comparable numbers."""
    if isinstance(fit, dict):
        return (fit["slope"], fit["intercept"], fit["residual"], tuple(fit["r_window"]))
    return (fit.slope, fit.intercept, fit.residual, tuple(fit.r_window))


class Campaign:
    name: str
    ops = 1  # operations attempted per execution
    configs: list = []  # harness configs validated during set-up

    def failed_replicates(self, result) -> int:
        return 0

    def cert_ratios(self, result) -> list[float]:
        return []


# -- rate_campaign -------------------------------------------------------------


class RateCampaign(Campaign):
    """rate_in_h / rate_in_n with a Gaussian kernel through ``harness.run``."""

    def __init__(self, name: str, cfg: dict, spot_rng: np.random.Generator):
        self.name = name
        self.cfg = cfg
        self.configs = [cfg]
        config = ExperimentConfig.from_dict(cfg)
        self.m = make_eval_grid(config.distribution(), cfg["x_grid"]["target_size"]).size
        self.h = config.bandwidth_grid().values
        self.ops = config.replicates * len(config.n_list)
        self.work = config.replicates * sum(config.n_list) * self.m * self.h.size
        # the replicate whose sups are recomputed by brute force after the run, at every n and h
        self.spot = int(spot_rng.integers(config.replicates))

    def run(self, out: Path):
        return run(ExperimentConfig.from_dict(self.cfg), out)

    def failed_replicates(self, result) -> int:
        return len(result.failures)

    def replay(self, tr: Tracer, out: Path):
        c = self.name
        with tr.span("harness.campaign", c):
            with tr.span("harness.config", c):
                config = ExperimentConfig.from_dict(self.cfg)
                dist, kernel = config.distribution(), config.kernel()
                s = MultiIndex.coerce(config.s, kernel.dim)
                h = config.bandwidth_grid().values
            grid = tr.call("kde.make_eval_grid", c, make_eval_grid, dist, int(self.cfg["x_grid"]["target_size"]))
            m = grid.size
            oracle = tr.call(
                "distributions.oracle_table", c, dist.smoothed_derivative_table, kernel, s, h, grid.points,
                counts={"cells": h.size * m},
            )
            span = "kde.radial" if s.is_zero() else "kde.hermite"
            rows = []
            for n in config.n_list:
                for r in range(config.replicates):
                    sample = tr.call("distributions.sample", c, dist.sample, n, config.base_seed + r, counts={"points": n})
                    est = tr.call(
                        span, c, kde_table, sample, kernel, h, grid.points, s=s.orders,
                        counts={"pairs": n * m * h.size}, peak_bytes=True,
                    )
                    with tr.span("harness.reduce", c):
                        rows.append(np.abs(est - oracle).max(axis=1))
            with tr.span("harness.cells", c):
                cells = []
                for k, n in enumerate(config.n_list):
                    mat = np.stack(rows[k * config.replicates : (k + 1) * config.replicates], axis=0)
                    for i, hv in enumerate(h):
                        bound = discretization_bound(kernel, s, grid.spacing, float(hv))
                        cells.append(DeviationCell(n=int(n), h=float(hv), sups=mat[:, i].copy(), disc_bound=bound))
                report = DeviationReport(
                    mode=config.mode, config_hash=config.config_hash(), base_seed=config.base_seed, s=s.orders,
                    statistic=config.statistic, h_values=h, n_list=config.n_list, grid_size=grid.size,
                    grid_spacing=grid.spacing, cells=cells,
                )
            with tr.span("harness.write", c) as w:
                report.write(out)
                w["counts"]["bytes"] = sum(p.stat().st_size for p in out.iterdir())
        return report

    def digest(self, result, out: Path):
        return (out / "report.json").read_bytes()

    def cert_ratios(self, result) -> list[float]:
        return [c.disc_bound / c.median for c in result.cells]

    def check(self, result, out: Path, ref: dict | None) -> list[str]:
        bad = []
        config = ExperimentConfig.from_dict(self.cfg)
        if len(result.cells) != len(config.n_list) * self.h.size:
            bad.append(f"{len(result.cells)} cells, expected {len(config.n_list) * self.h.size}")
        bad += [f"cell n={c.n} h={c.h:.4g}: {c.sups.size} of {config.replicates} replicates" for c in result.cells
                if c.sups.size != config.replicates]
        bad += [f"cell n={c.n} h={c.h:.4g}: non-finite sup" for c in result.cells if not np.all(np.isfinite(c.sups))]
        if ref is not None:
            got = [list(c.sups) for c in result.cells]
            if len(got) != len(ref["sups"]) or not all(
                np.allclose(a, b, rtol=ref["rtol"], atol=0.0) for a, b in zip(got, ref["sups"])
            ):
                bad.append("sups differ from the reference outputs")
        if bad:
            return bad
        return self._spot_check(config, result)

    def _spot_check(self, config, result) -> list[str]:
        """Recompute the seed-chosen replicate's sups, at every n and h, with direct Gaussian sums."""
        r = self.spot
        dist, kernel = config.distribution(), config.kernel()
        s = MultiIndex.coerce(config.s, kernel.dim)
        if kernel.form != "gaussian":
            raise ValueError("the brute-force spot check covers the Gaussian kernel only")
        X = make_eval_grid(dist, int(self.cfg["x_grid"]["target_size"])).points
        oracle = dist.smoothed_derivative_table(kernel, s, self.h, X)
        bad = []
        for n in config.n_list:
            est = _direct_gauss_sums(dist.sample(n, config.base_seed + r), X, self.h, s.orders)
            want = np.abs(est - oracle).max(axis=1)
            got = np.array([result.cell(n, float(h)).sups[r] for h in self.h])
            for h, g, w in zip(self.h, got, want):
                if not math.isclose(g, w, rel_tol=SPOT_RTOL):
                    bad.append(f"n={n} replicate={r} h={h:.4g}: sup {float(g)!r} vs brute force {float(w)!r}")
        return bad


# -- dimension_sweep -----------------------------------------------------------


class VoldimCampaign(Campaign):
    """Volume-dimension sweep through ``harness.run`` (mode voldim, one source)."""

    def __init__(self, name: str, cfg: dict, slope_tol: float | None = None, residual_tol: float | None = None):
        self.name = name
        self.cfg = cfg
        self.configs = [cfg]
        self.source = cfg["voldim"]["sources"][0]
        config = ExperimentConfig.from_dict(cfg)
        self.dist = config.distribution()
        self.m = make_eval_grid(self.dist, cfg["x_grid"]["target_size"]).size
        self.radii = np.asarray(cfg["voldim"]["radii"], dtype=float)
        n = cfg["voldim"]["n"] if self.source == "empirical" else 1
        self.work = n * self.m * self.radii.size
        self.slope_tol, self.residual_tol = slope_tol, residual_tol

    def run(self, out: Path):
        return run(ExperimentConfig.from_dict(self.cfg), out)

    def replay(self, tr: Tracer, out: Path):
        c = self.name
        with tr.span("harness.campaign", c):
            with tr.span("harness.config", c):
                config = ExperimentConfig.from_dict(self.cfg)
                dist = config.distribution()
            grid = tr.call("kde.make_eval_grid", c, make_eval_grid, dist, int(self.cfg["x_grid"]["target_size"]))
            if self.source == "empirical":
                n = int(self.cfg["voldim"]["n"])
                sample = tr.call("distributions.sample", c, dist.sample, n, config.base_seed, counts={"points": n})
                sweep = tr.call(
                    "dimension.counts", c, voldim_sweep, sample, grid, self.radii,
                    counts={"queries": grid.size * self.radii.size},
                )
            else:
                probs = np.empty(self.radii.size)
                for i, r in enumerate(self.radii):
                    probs[i] = max(
                        tr.call("distributions.ball_prob", c, dist.ball_prob, x, float(r), counts={"calls": 1})
                        for x in grid.points
                    )
                sweep = RadiusSweep(self.radii, probs, "oracle")
            fit = tr.call("dimension.fit", c, fit_loglog, sweep.radii, sweep.sup_probs, None)
            with tr.span("harness.write", c) as w:
                path = out / f"sweep_{self.source}.csv"
                write_radius_sweep_csv(sweep, path)
                w["counts"]["bytes"] = path.stat().st_size
        return {"fits": {self.source: fit}}

    def digest(self, result, out: Path):
        return (out / f"sweep_{self.source}.csv").read_bytes(), _fit_tuple(result["fits"][self.source])

    def check(self, result, out: Path, ref: dict | None) -> list[str]:
        bad = []
        radii, probs = _read_sweep(out / f"sweep_{self.source}.csv")
        if ref is not None and not np.allclose(probs, ref["sup_probs"], rtol=ref["rtol"], atol=0.0):
            bad.append("sup probabilities differ from the reference outputs")
        fit = result["fits"][self.source]
        if self.slope_tol is not None and abs(fit["slope"] - self.dist.analytic_voldim) > self.slope_tol:
            bad.append(f"slope {fit['slope']:.4f} outside {self.dist.analytic_voldim} +- {self.slope_tol}")
        if self.residual_tol is not None and fit["residual"] > self.residual_tol:
            bad.append(f"fit residual {fit['residual']:.2e} above {self.residual_tol}")
        X = make_eval_grid(self.dist, int(self.cfg["x_grid"]["target_size"])).points
        if self.source == "empirical":
            n = int(self.cfg["voldim"]["n"])
            counts = _open_ball_counts(self.dist.sample(n, int(self.cfg["base_seed"])), X, radii)
            if not np.array_equal(counts.max(axis=1) / n, probs):
                bad.append("empirical sup probabilities differ from brute-force open-ball counts")
            bad += _boundary_probe(n, radii)
        else:
            want = np.array([_oracle_sup_prob(self.dist, float(r)) for r in radii])
            if np.max(np.abs(probs - want)) > BALL_ATOL:
                bad.append("oracle sup probabilities differ from the closed form")
        return bad


def _boundary_probe(n: int, radii: np.ndarray) -> list[str]:
    """Open-ball semantics at exactly distance r, at the campaign's sample size.

    Points sit at exactly representable distances r (on the boundary, not
    counted) and r/2 (inside, counted) from x0; the rest lie far away.
    """
    x0 = np.array([0.5, 0.5])
    r = 2.0 ** math.floor(math.log2(float(radii.min())))
    special = np.array([[0.5 + r, 0.5], [0.5 - r, 0.5], [0.5, 0.5 + r], [0.5, 0.5 - r], [0.5 + r / 2, 0.5]])
    far = 3.0 + np.arange(n - len(special), dtype=float)[:, None] * np.array([[1e-6, 0.0]])
    sample = np.vstack([special, far])
    sweep = voldim_sweep(sample, x0[None, :], np.array([r, 2.0 * r]))
    got = np.rint(sweep.sup_probs * n).astype(int)  # radii sorted descending: 2r, r
    if got.tolist() != [5, 1]:
        return [f"open-ball counts at exact distance: got {got.tolist()}, expected [5, 1]"]
    return []


def _oracle_sup_prob(dist, r: float) -> float:
    """Closed-form sup_x P(B(x, r)) for the oracle campaigns' distributions."""
    if dist.kind == "unbounded_ball" and r <= 1.0:
        return r ** (dist.ambient_dim - dist.beta)  # attained at the origin
    if dist.kind == "uniform_cube" and dist.ambient_dim == 2 and r <= 0.5:
        return math.pi * r * r  # an interior ball
    raise ValueError(f"no closed form for {dist.kind} at r = {r}")


class EstimatorCampaign(Campaign):
    """A direct call of a dimension estimator on a sample made from the seed."""

    def __init__(self, name: str, estimator: str, sample: np.ndarray, radii: np.ndarray):
        self.name = name
        self.estimator = estimator
        self.sample = sample
        self.radii = radii
        n = sample.shape[0]
        self.work = n * (n - 1) / 2 if estimator == "correlation" else n * radii.size
        self.fn = correlation_dimension_estimate if estimator == "correlation" else box_dimension_estimate

    def run(self, out: Path):
        return self.fn(self.sample, self.radii)

    def replay(self, tr: Tracer, out: Path):
        n = self.sample.shape[0]
        counts = {"pairs": n * (n - 1) // 2} if self.estimator == "correlation" else {"covers": self.radii.size}
        with tr.span("harness.campaign", self.name):
            return tr.call(f"dimension.{self.estimator}", self.name, self.fn, self.sample, self.radii, counts=counts)

    def digest(self, result, out: Path):
        return _fit_tuple(result)

    def check(self, result, out: Path, ref: dict | None) -> list[str]:
        bad = []
        if ref is not None and not np.allclose(
            [result.slope, result.intercept], [ref["slope"], ref["intercept"]], rtol=ref["rtol"], atol=0.0
        ):
            bad.append("fit differs from the reference outputs")
        tree = cKDTree(self.sample)
        n = self.sample.shape[0]
        if self.estimator == "correlation":
            radii = np.sort(self.radii)
            pairs = (tree.count_neighbors(tree, radii) - n) / 2  # ordered pairs with d <= r, minus self pairs
            x, y = np.log(radii), np.log(pairs / (n * (n - 1) / 2.0))
        else:
            deltas = np.sort(self.radii)[::-1]
            x, y = -np.log(deltas), np.log([_greedy_cover_tree(tree, float(dl)) for dl in deltas])
        slope = float(np.polyfit(x, y, 1)[0])
        if abs(slope - result.slope) > FIT_ATOL:
            bad.append(f"slope {result.slope!r} vs {slope!r} from independent counts")
        return bad


def _greedy_cover_tree(tree: cKDTree, delta: float) -> int:
    """Greedy closed-ball cover, centres at the lowest-index uncovered point."""
    covered = np.zeros(tree.n, dtype=bool)
    count = 0
    for i in range(tree.n):
        if not covered[i]:
            count += 1
            covered[tree.query_ball_point(tree.data[i], delta)] = True
    return count


# -- oracle_quadrature ---------------------------------------------------------


class MomentsCampaign(Campaign):
    """moment_scaling through ``harness.run`` (certified quadrature, no sampling)."""

    def __init__(self, name: str, cfg: dict, slope_tol: float):
        self.name = name
        self.cfg = cfg
        self.configs = [cfg]
        config = ExperimentConfig.from_dict(cfg)
        self.dist, self.kernel = config.distribution(), config.kernel()
        self.m = make_eval_grid(self.dist, cfg["x_grid"]["target_size"]).size
        self.h = config.bandwidth_grid().values
        self.work = self.h.size * self.m
        self.slope_tol = slope_tol

    def run(self, out: Path):
        return run(ExperimentConfig.from_dict(self.cfg), out)

    def replay(self, tr: Tracer, out: Path):
        c = self.name
        with tr.span("harness.campaign", c):
            with tr.span("harness.config", c):
                config = ExperimentConfig.from_dict(self.cfg)
                dist, kernel = config.distribution(), config.kernel()
                s = MultiIndex.coerce(config.s, kernel.dim)
                k = float(self.cfg["moment"]["k"])
            grid = tr.call("kde.make_eval_grid", c, make_eval_grid, dist, int(self.cfg["x_grid"]["target_size"]))
            values = np.empty(self.h.size)
            for i, h in enumerate(self.h):
                values[i] = max(
                    tr.call("distributions.moment_k", c, dist.moment_k, kernel, x, float(h), k, s, counts={"calls": 1})
                    for x in grid.points
                )
            fit = tr.call("dimension.fit", c, fit_loglog, self.h, values)
        return {"values": [float(v) for v in values], "fit": fit}

    def digest(self, result, out: Path):
        return list(result["values"]), _fit_tuple(result["fit"])

    def check(self, result, out: Path, ref: dict | None) -> list[str]:
        bad = []
        values = np.asarray(result["values"])
        if ref is not None and not np.allclose(values, ref["values"], rtol=ref["rtol"], atol=0.0):
            bad.append("moments differ from the reference outputs")
        slope = result["fit"]["slope"]
        if abs(slope - self.dist.analytic_voldim) > self.slope_tol:
            bad.append(f"moment slope {slope:.4f} outside {self.dist.analytic_voldim} +- {self.slope_tol}")
        want = np.array([_moment_sup(self.dist, self.kernel, float(h)) for h in self.h])
        if not np.allclose(values, want, rtol=MOMENT_RTOL, atol=0.0):
            bad.append(f"moments differ from the independent values by up to {np.max(np.abs(values / want - 1)):.2e}")
        return bad


def _moment_sup(dist, kernel, h: float) -> float:
    """sup_x E[K((x - X)/h)^2] for the Epanechnikov moment campaigns, computed independently."""
    if kernel.form != "epanechnikov":
        raise ValueError("independent moments cover the Epanechnikov kernel only")
    if dist.kind == "uniform_cube" and dist.ambient_dim == 1 and h <= 0.5:
        return 0.6 * h  # h * int K^2 with K(u) = 3/4 (1 - u^2), for x at least h inside the cube
    if dist.kind == "uniform_circle":
        # every lattice point lies on the circle; |x - X| = 2 rho sin(theta/2)
        rho = dist.radius
        edge = 2.0 * math.asin(min(1.0, h / (2.0 * rho)))

        def f(t):
            return float(kernel.profile(2.0 * rho * math.sin(t / 2.0) / h)) ** 2

        val, _ = integrate.quad(f, 0.0, edge, epsabs=0.0, epsrel=1e-12, limit=200)
        return val / math.pi  # symmetric in theta, density 1/(2 pi)
    raise ValueError(f"no independent moment for {dist.kind}")


# -- workloads -----------------------------------------------------------------

SIZES = {
    "full": {
        "rate_n": 100_000, "rate_reps": 2, "sweep_reps": 8, "sweep_n": [1_000, 3_000, 10_000, 30_000, 100_000],
        "grids": {"cube2": 225, "circle": 128, "ball": 200, "cube1": 201}, "h_points": 12,
        "voldim_n": [100_000, 200_000], "voldim_grid": 64, "corr_n": 7_000, "box_n": 20_000,
        "moment_grid": 48, "oracle_grid": 64, "pinned": True,
    },
    "tiny": {
        "rate_n": 2_000, "rate_reps": 2, "sweep_reps": 2, "sweep_n": [500, 1_000, 2_000],
        "grids": {"cube2": 25, "circle": 16, "ball": 20, "cube1": 21}, "h_points": 4,
        "voldim_n": [5_000], "voldim_grid": 16, "corr_n": 500, "box_n": 1_000,
        "moment_grid": 8, "oracle_grid": 16, "pinned": False,
    },
}


def _rate_cfg(dist, kdim, grid, n_list, h, reps, seed, s=None):
    cfg = {
        "mode": "rate_in_h" if len(n_list) == 1 else "rate_in_n",
        "distribution": dist,
        "kernel": {"form": "gaussian", "dim": kdim},
        "n_list": n_list,
        "h_grid": {"l_n": h[0], "h_max": h[1], "n_points": h[2]},
        "x_grid": {"target_size": grid},
        "replicates": reps,
        "base_seed": seed,
    }
    if s is not None:
        cfg["s"] = s
    return cfg


def rate_campaign(seed: int, z: dict) -> list[Campaign]:
    rng = np.random.default_rng(seed)
    n, reps, hp, g = z["rate_n"], z["rate_reps"], z["h_points"], z["grids"]
    specs = [
        ("cube2", _rate_cfg(CUBE2, 2, g["cube2"], [n], (0.05, 0.4, hp), reps, seed)),
        ("circle", _rate_cfg(CIRCLE, 2, g["circle"], [n], (0.05, 0.4, hp), reps, seed)),
        ("ball", _rate_cfg(BALL, 2, g["ball"], [n], (0.05, 0.4, hp), reps, seed)),
        ("deriv_cube1", _rate_cfg(CUBE1, 1, g["cube1"], [n], (0.01, 0.08, hp), reps, seed, s=[1])),
        ("n_sweep_circle", _rate_cfg(CIRCLE, 2, g["circle"], z["sweep_n"], (0.15, 0.15, 1), z["sweep_reps"], seed)),
    ]
    return [RateCampaign(name, cfg, rng) for name, cfg in specs]


def dimension_sweep(seed: int, z: dict) -> list[Campaign]:
    out: list[Campaign] = []
    grid = z["voldim_grid"]
    cube2 = distribution_from_config(CUBE2)
    circle = distribution_from_config(CIRCLE)
    # cube2 uses the acceptance suite's radii, which keep expected counts >= ~50
    radii = {
        "cube2": np.geomspace(2.0**-6 * cube2.support_diameter, 2.0**-2 * cube2.support_diameter, 9),
        "circle": dyadic_radii(circle.support_diameter, 3, 8),
    }
    for n in z["voldim_n"]:
        for label, dist in (("cube2", CUBE2), ("circle", CIRCLE)):
            cfg = {
                "mode": "voldim",
                "distribution": dist,
                "x_grid": {"target_size": grid},
                "voldim": {"sources": ["empirical"], "n": n, "radii": [float(r) for r in radii[label]]},
                "base_seed": seed,
            }
            # the acceptance suite pins the empirical slope to d_vol +- 0.15 at n >= 1e5
            tol = 0.15 if z["pinned"] else None
            out.append(VoldimCampaign(f"voldim_{label}_n{n}", cfg, slope_tol=tol))
    out.append(
        EstimatorCampaign("correlation_circle", "correlation", circle.sample(z["corr_n"], seed + 1), np.geomspace(0.01, 0.2, 8))
    )
    out.append(EstimatorCampaign("box_cube2", "box", cube2.sample(z["box_n"], seed + 2), np.geomspace(0.03, 0.25, 6)))
    return out


def oracle_quadrature(seed: int, z: dict) -> list[Campaign]:
    # the seed scales the bandwidth window and the radii by up to 4 %, so it
    # changes every oracle input without changing the amount of work
    f = 1.0 + 0.04 * float(np.random.default_rng(seed).random())
    hp = z["h_points"]
    out: list[Campaign] = []
    for label, dist, kdim in (("cube1", CUBE1, 1), ("circle", CIRCLE, 2)):
        cfg = {
            "mode": "moment_scaling",
            "distribution": dist,
            "kernel": {"form": "epanechnikov", "dim": kdim},
            "moment": {"k": 2.0},
            "h_grid": {"l_n": 0.02 * f, "h_max": 0.15 * f, "n_points": hp},
            "x_grid": {"target_size": z["moment_grid"]},
            "base_seed": seed,
        }
        # the acceptance suite's moment tolerance, d_vol +- 0.05
        out.append(MomentsCampaign(f"moments_{label}", cfg, slope_tol=0.05))
    for label, dist in (("ball", BALL), ("cube2", CUBE2)):
        diam = distribution_from_config(dist).support_diameter
        cfg = {
            "mode": "voldim",
            "distribution": dist,
            "x_grid": {"target_size": z["oracle_grid"]},
            "voldim": {"sources": ["oracle"], "radii": [float(r) * f for r in dyadic_radii(diam, 3, 8)]},
            "base_seed": seed,
        }
        # the acceptance suite pins the ball oracle slope and residual to 1e-10
        tol = 1e-10 if label == "ball" else None
        out.append(VoldimCampaign(f"voldim_oracle_{label}", cfg, slope_tol=tol, residual_tol=tol))
    return out


WORKLOADS = {
    "rate_campaign": rate_campaign,
    "dimension_sweep": dimension_sweep,
    "oracle_quadrature": oracle_quadrature,
}
