# harness.py
# Experiment orchestration: Monte Carlo sup-deviation campaigns over
# (n, h) grids, moment-scaling sweeps, dimension-estimation runs, bound
# reports and covering sweeps, with deterministic seeding and byte-stable
# artifacts (floats serialized at 17 significant digits, keys sorted).
#
# Replicate r of a campaign uses seed base_seed + r.  Replicates run on a
# process pool sized by the KDERATES_WORKERS environment variable; results
# are keyed by (n, replicate), so parallel and serial runs produce
# identical reports.

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import bounds as bounds_mod
from .dimension import RateFit, dyadic_radii, fit_loglog, voldim_estimate, voldim_sweep, write_radius_sweep_csv
from .distributions import ReferenceDistribution, distribution_from_config, write_sample_csv
from .kde import BandwidthGrid, EvalGrid, discretization_bound, kde_table, make_eval_grid
from .kernels import Kernel, MultiIndex, kernel_from_config

__all__ = [
    "ExperimentConfig",
    "DeviationReport",
    "run",
    "fit_rate",
    "emit_plots",
    "dumps_17g",
]

_MODES = ("rate_in_h", "rate_in_n", "voldim", "bounds", "covering", "moment_scaling")
_WORKERS_ENV = "KDERATES_WORKERS"


# -- serialization -------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and sorted keys.

    Non-finite floats are emitted as the strings "inf"/"-inf"/"nan" to keep
    the output strict JSON.
    """
    import json as _json

    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{_json.dumps(str(k))}: {dumps_17g(obj[k], indent + 1)}' for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dumps_17g(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return _json.dumps(str(obj))


def _workers() -> int:
    env = os.environ.get(_WORKERS_ENV)
    if env:
        return max(1, int(env))
    return max(1, min(os.cpu_count() or 1, 8))


# -- configuration --------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description.

    Construct with :meth:`from_dict` or :meth:`from_yaml`; every referenced
    distribution/kernel spec is instantiated during validation.
    """

    mode: str
    raw: dict = field(repr=False)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {_MODES}")

    # convenience accessors -------------------------------------------------
    @property
    def base_seed(self) -> int:
        return int(self.raw.get("base_seed", 0))

    @property
    def replicates(self) -> int:
        return int(self.raw.get("replicates", 1))

    @property
    def statistic(self) -> str:
        return str(self.raw.get("statistic", "median"))

    @property
    def n_list(self) -> list[int]:
        return [int(v) for v in self.raw.get("n_list", [])]

    @property
    def s(self) -> tuple[int, ...]:
        kernel_cfg = self.raw.get("kernel")
        dim = int(kernel_cfg["dim"]) if kernel_cfg else 1
        s = self.raw.get("s")
        return tuple(int(v) for v in s) if s is not None else (0,) * dim

    def distribution(self) -> ReferenceDistribution:
        return distribution_from_config(self.raw["distribution"])

    def kernel(self) -> Kernel:
        return kernel_from_config(self.raw["kernel"])

    def bandwidth_grid(self) -> BandwidthGrid:
        g = self.raw.get("h_grid", {})
        l_n = float(g["l_n"])
        h_max = float(g.get("h_max", 4.0 * self.distribution().support_diameter))
        n_points = g.get("n_points")
        per_decade = int(g.get("points_per_decade", 16))
        return BandwidthGrid.log_spaced(l_n, h_max, None if n_points is None else int(n_points), per_decade)

    def eval_grid(self, dist: ReferenceDistribution) -> EvalGrid:
        g = self.raw.get("x_grid", {})
        return make_eval_grid(dist, int(g.get("target_size", 256)))

    def normalized(self) -> dict:
        out = {k: v for k, v in self.raw.items() if k != "out_dir"}
        out["mode"] = self.mode
        return out

    def config_hash(self) -> str:
        return hashlib.sha256(dumps_17g(self.normalized()).encode()).hexdigest()

    # construction ------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        mode = str(data.get("mode", ""))
        cfg = cls(mode=mode, raw=data)
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must contain a mapping")
        return cls.from_dict(data)

    def validate(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.mode in ("rate_in_h", "rate_in_n", "moment_scaling", "voldim"):
            self.distribution()
        if self.mode in ("rate_in_h", "rate_in_n", "moment_scaling", "covering"):
            self.kernel()
        if self.mode in ("rate_in_h", "rate_in_n"):
            if not self.n_list:
                raise ValueError("n_list must be nonempty")
            self.bandwidth_grid()
            kern = self.kernel()
            if MultiIndex.coerce(self.s, kern.dim).order > kern.deriv_support:
                raise ValueError("requested derivative order unsupported by the kernel")
        if self.mode == "bounds":
            self.bound_spec()

    def bound_spec(self) -> bounds_mod.BoundSpec:
        b = dict(self.raw.get("bounds", {}))
        return bounds_mod.BoundSpec(**b)


# -- deviation campaign -----------------------------------------------------------


@dataclass(frozen=True)
class DeviationCell:
    n: int
    h: float
    sups: np.ndarray
    disc_bound: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.sups))

    @property
    def median(self) -> float:
        return float(np.median(self.sups))

    @property
    def q10(self) -> float:
        return float(np.quantile(self.sups, 0.10))

    @property
    def q90(self) -> float:
        return float(np.quantile(self.sups, 0.90))


@dataclass
class DeviationReport:
    """Per-(n, h) replicate sup deviations with summary statistics."""

    mode: str
    config_hash: str
    base_seed: int
    s: tuple[int, ...]
    statistic: str
    h_values: np.ndarray
    n_list: list[int]
    grid_size: int
    grid_spacing: float
    cells: list[DeviationCell]
    failures: list[str] = field(default_factory=list)

    @property
    def seeds(self) -> list[int]:
        reps = max((c.sups.size for c in self.cells), default=0)
        return [self.base_seed + r for r in range(reps)]

    def cell(self, n: int, h: float) -> DeviationCell:
        for c in self.cells:
            if c.n == n and math.isclose(c.h, h, rel_tol=1e-12):
                return c
        raise KeyError((n, h))

    def to_dict(self) -> dict:
        return {
            "schema": "kderates.deviation_report/1",
            "mode": self.mode,
            "config_hash": self.config_hash,
            "base_seed": self.base_seed,
            "seeds": self.seeds,
            "s": list(self.s),
            "statistic": self.statistic,
            "h_values": [float(h) for h in self.h_values],
            "n_list": [int(n) for n in self.n_list],
            "x_grid": {"size": self.grid_size, "spacing": self.grid_spacing},
            "cells": [
                {
                    "n": c.n,
                    "h": c.h,
                    "sups": [float(v) for v in c.sups],
                    "mean": c.mean,
                    "median": c.median,
                    "q10": c.q10,
                    "q90": c.q90,
                    "disc_bound": c.disc_bound,
                }
                for c in self.cells
            ],
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviationReport":
        cells = [
            DeviationCell(int(c["n"]), float(c["h"]), np.asarray(c["sups"], dtype=float), float(c["disc_bound"]))
            for c in data["cells"]
        ]
        return cls(
            mode=data["mode"],
            config_hash=data["config_hash"],
            base_seed=int(data["base_seed"]),
            s=tuple(data["s"]),
            statistic=data["statistic"],
            h_values=np.asarray(data["h_values"], dtype=float),
            n_list=[int(v) for v in data["n_list"]],
            grid_size=int(data["x_grid"]["size"]),
            grid_spacing=float(data["x_grid"]["spacing"]),
            cells=cells,
            failures=list(data.get("failures", [])),
        )

    @classmethod
    def load(cls, path) -> "DeviationReport":
        import json

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(dumps_17g(self.to_dict()) + "\n", encoding="utf-8")
        with open(out / "summary.csv", "w", encoding="utf-8") as fh:
            fh.write("n,h,mean,median,q10,q90,disc_bound\n")
            for c in self.cells:
                fh.write(
                    f"{c.n},{c.h:.17g},{c.mean:.17g},{c.median:.17g},"
                    f"{c.q10:.17g},{c.q90:.17g},{c.disc_bound:.17g}\n"
                )
        with open(out / "replicates.csv", "w", encoding="utf-8") as fh:
            fh.write("n,h,replicate,sup\n")
            for c in self.cells:
                for r, v in enumerate(c.sups):
                    fh.write(f"{c.n},{c.h:.17g},{r},{v:.17g}\n")


def _deviation_task(args) -> tuple[int, int, np.ndarray]:
    """One replicate: sample, evaluate the KDE tables, sup per bandwidth."""
    dist_cfg, kernel_cfg, s, n, r, seed, h_values, X, oracle = args
    dist = distribution_from_config(dist_cfg)
    kernel = kernel_from_config(kernel_cfg)
    sample = dist.sample(n, seed)
    est = kde_table(sample, kernel, h_values, X, s=s)
    per_h = np.abs(est - oracle).max(axis=1)
    return n, r, per_h


def _run_deviation(config: ExperimentConfig, out_dir) -> DeviationReport:
    dist = config.distribution()
    kernel = config.kernel()
    s = MultiIndex.coerce(config.s, kernel.dim)
    h_grid = config.bandwidth_grid()
    x_grid = config.eval_grid(dist)
    failures: list[str] = []

    oracle = dist.smoothed_derivative_table(kernel, s, h_grid.values, x_grid.points)

    dist_cfg = config.raw["distribution"]
    kernel_cfg = config.raw["kernel"]
    tasks = [
        (dist_cfg, kernel_cfg, s.orders, n, r, config.base_seed + r, h_grid.values, x_grid.points, oracle)
        for n in config.n_list
        for r in range(config.replicates)
    ]
    results: dict[tuple[int, int], np.ndarray] = {}
    workers = _workers()
    if workers == 1 or len(tasks) == 1:
        for t in tasks:
            try:
                n, r, per_h = _deviation_task(t)
                results[(n, r)] = per_h
            except Exception as exc:  # record and continue
                failures.append(f"n={t[3]} replicate={t[4]}: {exc}")
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_deviation_task, t): t for t in tasks}
            for fut, t in futures.items():
                try:
                    n, r, per_h = fut.result()
                    results[(n, r)] = per_h
                except Exception as exc:
                    failures.append(f"n={t[3]} replicate={t[4]}: {exc}")
        failures.sort()

    cells = []
    for n in config.n_list:
        sups_by_rep = [results[(n, r)] for r in range(config.replicates) if (n, r) in results]
        if not sups_by_rep:
            continue
        mat = np.stack(sups_by_rep, axis=0)  # (replicates, H)
        for i, h in enumerate(h_grid.values):
            cells.append(
                DeviationCell(
                    n=int(n),
                    h=float(h),
                    sups=mat[:, i].copy(),
                    disc_bound=discretization_bound(kernel, s, x_grid.spacing, float(h)),
                )
            )
    report = DeviationReport(
        mode=config.mode,
        config_hash=config.config_hash(),
        base_seed=config.base_seed,
        s=s.orders,
        statistic=config.statistic,
        h_values=h_grid.values,
        n_list=config.n_list,
        grid_size=x_grid.size,
        grid_spacing=x_grid.spacing,
        cells=cells,
        failures=failures,
    )
    if out_dir is not None:
        report.write(out_dir)
        if config.raw.get("export_sample_csv"):
            sample = dist.sample(config.n_list[0], config.base_seed)
            write_sample_csv(sample, Path(out_dir) / "sample.csv")
    return report


def fit_rate(report: DeviationReport, axis: str, statistic: str | None = None) -> RateFit:
    """Log-log OLS slope of the chosen replicate statistic along h or n."""
    statistic = statistic or report.statistic
    if statistic not in ("mean", "median"):
        raise ValueError("statistic must be 'mean' or 'median'")
    if axis == "h":
        ns = sorted({c.n for c in report.cells})
        if len(ns) != 1:
            raise ValueError("h-axis fit needs a single sample size in the report")
        cells = sorted((c for c in report.cells), key=lambda c: c.h)
        xs = np.array([c.h for c in cells])
    elif axis == "n":
        hs = sorted({c.h for c in report.cells})
        if len(hs) != 1:
            raise ValueError("n-axis fit needs a single bandwidth in the report")
        cells = sorted((c for c in report.cells), key=lambda c: c.n)
        xs = np.array([float(c.n) for c in cells])
    else:
        raise ValueError("axis must be 'h' or 'n'")
    ys = np.array([getattr(c, statistic) for c in cells])
    if np.any(ys <= 0):
        raise ValueError("zero statistic value: log-log fit undefined")
    return fit_loglog(xs, ys)


def emit_plots(report: DeviationReport, out_dir, statistic: str | None = None) -> list[Path]:
    """Write log-log scatter + fitted-line data as CSV and a standalone SVG.

    One pair of files per available axis; refuses when an axis has a single
    grid point.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    statistic = statistic or report.statistic
    ns = sorted({c.n for c in report.cells})
    hs = sorted({c.h for c in report.cells})
    axes = []
    if len(hs) > 1 and len(ns) == 1:
        axes.append("h")
    if len(ns) > 1 and len(hs) == 1:
        axes.append("n")
    if not axes:
        raise ValueError("no axis with at least two grid points and a fixed partner; nothing to plot")
    written = []
    for axis in axes:
        fit = fit_rate(report, axis, statistic)
        cells = sorted(report.cells, key=lambda c: c.h if axis == "h" else c.n)
        xs = np.array([c.h if axis == "h" else float(c.n) for c in cells])
        means = np.array([c.mean for c in cells])
        medians = np.array([c.median for c in cells])
        log_x = np.log(xs)
        fit_vals = fit.slope * log_x + fit.intercept
        csv_path = out / f"plot_{axis}.csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(f"log_{axis},log_sup_mean,log_sup_median,fit_value\n")
            for lx, lm, lmed, fv in zip(log_x, np.log(means), np.log(medians), fit_vals):
                fh.write(f"{lx:.17g},{lm:.17g},{lmed:.17g},{fv:.17g}\n")
        svg_path = out / f"plot_{axis}.svg"
        svg_path.write_text(
            _scatter_svg(log_x, np.log(medians), fit_vals, f"log {axis}", "log sup deviation"),
            encoding="utf-8",
        )
        written.extend([csv_path, svg_path])
    return written


def _scatter_svg(x, y, line, xlabel, ylabel, width=640, height=480) -> str:
    pad = 60.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo_x, hi_x = float(x.min()), float(x.max())
    lo_y = float(min(y.min(), line.min()))
    hi_y = float(max(y.max(), line.max()))
    span_x = hi_x - lo_x or 1.0
    span_y = hi_y - lo_y or 1.0

    def sx(v):
        return pad + (v - lo_x) / span_x * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - lo_y) / span_y * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" font-size="14">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>',
    ]
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, line))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#c22" stroke-width="1.5"/>')
    for a, b in zip(x, y):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3.5" fill="#246"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# -- other modes ------------------------------------------------------------------


def _run_moments(config: ExperimentConfig, out_dir) -> dict:
    dist = config.distribution()
    kernel = config.kernel()
    s = MultiIndex.coerce(config.s, kernel.dim)
    mcfg = config.raw.get("moment", {})
    k = float(mcfg.get("k", 2.0))
    h_grid = config.bandwidth_grid()
    x_grid = config.eval_grid(dist)
    values = np.empty(h_grid.values.size)
    for i, h in enumerate(h_grid.values):
        values[i] = max(dist.moment_k(kernel, x, float(h), k, s) for x in x_grid.points)
    fit = fit_loglog(h_grid.values, values)
    report = {
        "schema": "kderates.moment_report/1",
        "mode": "moment_scaling",
        "config_hash": config.config_hash(),
        "k": k,
        "s": list(s.orders),
        "h_values": [float(h) for h in h_grid.values],
        "values": [float(v) for v in values],
        "fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "r_window": list(fit.r_window),
        },
        "analytic_voldim": dist.analytic_voldim,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "moments.json").write_text(dumps_17g(report) + "\n", encoding="utf-8")
        with open(out / "moments.csv", "w", encoding="utf-8") as fh:
            fh.write("h,moment\n")
            for h, v in zip(h_grid.values, values):
                fh.write(f"{h:.17g},{v:.17g}\n")
    return report


def _run_voldim(config: ExperimentConfig, out_dir) -> dict:
    dist = config.distribution()
    vcfg = config.raw.get("voldim", {})
    x_grid = config.eval_grid(dist)
    if "radii" in vcfg:
        radii = np.asarray([float(r) for r in vcfg["radii"]])
    else:
        radii = dyadic_radii(dist.support_diameter, int(vcfg.get("j_min", 3)), int(vcfg.get("j_max", 8)))
    window = tuple(float(v) for v in vcfg["window"]) if vcfg.get("window") else None
    sources = vcfg.get("sources", ["oracle"])
    report: dict = {
        "schema": "kderates.voldim_report/1",
        "mode": "voldim",
        "config_hash": config.config_hash(),
        "analytic_voldim": dist.analytic_voldim,
        "radii": [float(r) for r in radii],
        "fits": {},
    }
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for source in sources:
        if source == "oracle":
            sweep = voldim_sweep(dist, x_grid, radii)
            fit = fit_loglog(sweep.radii, sweep.sup_probs, window)
        elif source == "empirical":
            n = int(vcfg.get("n", 100_000))
            sample = dist.sample(n, config.base_seed)
            sweep = voldim_sweep(sample, x_grid, radii)
            fit = fit_loglog(sweep.radii, sweep.sup_probs, window)
        else:
            raise ValueError(f"unknown voldim source {source!r}")
        report["fits"][source] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "r_window": list(fit.r_window),
            "n_points": fit.n_points,
        }
        if out is not None:
            write_radius_sweep_csv(sweep, out / f"sweep_{source}.csv")
    if out is not None:
        (out / "voldim.json").write_text(dumps_17g(report) + "\n", encoding="utf-8")
    return report


def _run_bounds(config: ExperimentConfig, out_dir) -> dict:
    spec = config.bound_spec()
    report = bounds_mod.bound_report(spec)
    report["schema"] = "kderates.bound_report/1"
    report["config_hash"] = config.config_hash()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bounds.json").write_text(dumps_17g(report) + "\n", encoding="utf-8")
    return report


def _run_covering(config: ExperimentConfig, out_dir) -> dict:
    kernel = config.kernel()
    ccfg = config.raw.get("covering", {})
    R = float(ccfg.get("R", 1.0))
    h_values = [float(h) for h in ccfg.get("h_values", [0.1, 0.2, 0.3, 0.5, 0.8])]
    eta_fracs = [float(e) for e in ccfg.get("eta_fracs", [0.05, 0.1, 0.2, 0.4, 0.8])]
    grid_size = int(ccfg.get("grid_size", 64))
    q_size = int(ccfg.get("q_size", 128))
    d = kernel.dim
    rng = np.random.Generator(np.random.Philox(key=config.base_seed))
    if d == 1:
        grid = np.linspace(-R, R, grid_size).reshape(-1, 1)
    else:
        k = max(2, int(round((grid_size * 2**d / math.pi) ** (1.0 / d))))
        axes = [np.linspace(-R, R, k)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        grid = grid[np.linalg.norm(grid, axis=1) <= R]
    q_sample = rng.uniform(-R, R, size=(q_size, d))
    rows = []
    violations = 0
    for h in h_values:
        for frac in eta_fracs:
            eta = frac * kernel.sup_norm
            emp = bounds_mod.empirical_covering(kernel, h, grid, q_sample, eta)
            bnd = bounds_mod.covering_bound(kernel, h, R, eta)
            ok = emp <= bnd
            violations += 0 if ok else 1
            rows.append({"h": h, "eta": eta, "empirical": emp, "bound": bnd, "ok": ok})
    report = {
        "schema": "kderates.covering_report/1",
        "mode": "covering",
        "config_hash": config.config_hash(),
        "kernel": dict(config.raw["kernel"]),
        "R": R,
        "rows": rows,
        "violations": violations,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "covering.json").write_text(dumps_17g(report) + "\n", encoding="utf-8")
        with open(out / "covering.csv", "w", encoding="utf-8") as fh:
            fh.write("h,eta,empirical,bound,ok\n")
            for row in rows:
                fh.write(f"{row['h']:.17g},{row['eta']:.17g},{row['empirical']},{row['bound']:.17g},{int(row['ok'])}\n")
    return report


def run(config: ExperimentConfig, out_dir=None):
    """Execute the experiment described by the config.

    Deterministic given the config (including base_seed); artifacts are
    persisted under ``out_dir`` when given.  Returns the mode-specific
    report object.
    """
    if config.mode in ("rate_in_h", "rate_in_n"):
        return _run_deviation(config, out_dir)
    if config.mode == "moment_scaling":
        return _run_moments(config, out_dir)
    if config.mode == "voldim":
        return _run_voldim(config, out_dir)
    if config.mode == "bounds":
        return _run_bounds(config, out_dir)
    if config.mode == "covering":
        return _run_covering(config, out_dir)
    raise ValueError(f"unknown mode {config.mode!r}")
