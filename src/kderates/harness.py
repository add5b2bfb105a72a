# harness.py
# Experiment orchestration.  MODES is the one table of experiment modes:
# each entry names the mode's CLI subcommand, the config parts validate()
# builds, and the runner that computes the report and the text of every
# artifact.  run() looks the mode up, runs it, and writes the files through
# kderates.artifacts, which alone decides the byte format.
#
# Replicate r of a deviation campaign uses seed base_seed + r.  Replicates
# run on a process pool sized by the KDERATES_WORKERS environment variable;
# outcomes, failures included, are collected in task order, so parallel and
# serial runs write identical artifacts.

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import bounds as bounds_mod
from .artifacts import csv_text, dumps_17g, write_files
from .dimension import RateFit, dyadic_radii, fit_loglog, radius_sweep_csv, voldim_sweep
from .distributions import ReferenceDistribution, distribution_from_config
from .kde import BandwidthGrid, EvalGrid, discretization_bound, kde_table, make_eval_grid
from .kernels import Kernel, MultiIndex, kernel_from_config

__all__ = [
    "MODES",
    "ExperimentConfig",
    "DeviationReport",
    "run",
    "fit_rate",
    "emit_plots",
    "dumps_17g",
]

_WORKERS_ENV = "KDERATES_WORKERS"
_VOLDIM_SOURCES = ("oracle", "empirical")


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
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {tuple(MODES)}")

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

    def sample_sizes(self) -> list[int]:
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        return self.n_list

    def derivative(self) -> MultiIndex:
        kern = self.kernel()
        s = MultiIndex.coerce(self.s, kern.dim)
        if s.order > kern.deriv_support:
            raise ValueError(f"derivative order {s.order} unsupported by the {kern.form} kernel")
        return s

    def bandwidth_grid(self) -> BandwidthGrid:
        g = self.raw.get("h_grid", {})
        if "l_n" not in g:
            raise ValueError("h_grid.l_n is required")
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
        """Build every config part the mode's runner reads; raises ValueError."""
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        for part in MODES[self.mode].parts:
            part(self)

    def bound_spec(self) -> bounds_mod.BoundSpec:
        b = dict(self.raw.get("bounds", {}))
        return bounds_mod.BoundSpec(**b)

    def voldim_sources(self) -> list[str]:
        sources = list(self.raw.get("voldim", {}).get("sources", ["oracle"]))
        unknown = [v for v in sources if v not in _VOLDIM_SOURCES]
        if unknown:
            raise ValueError(f"unknown voldim source(s) {unknown}; choose from {list(_VOLDIM_SOURCES)}")
        return sources


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
        """The report.json content; arrays and tuples are left for dumps_17g to serialize."""
        return {
            "schema": "kderates.deviation_report/1",
            "mode": self.mode,
            "config_hash": self.config_hash,
            "base_seed": self.base_seed,
            "seeds": self.seeds,
            "s": self.s,
            "statistic": self.statistic,
            "h_values": self.h_values,
            "n_list": self.n_list,
            "x_grid": {"size": self.grid_size, "spacing": self.grid_spacing},
            "cells": [dict(asdict(c), mean=c.mean, median=c.median, q10=c.q10, q90=c.q90) for c in self.cells],
            "failures": self.failures,
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
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def files(self) -> dict[str, str]:
        """The report's artifacts: report.json, summary.csv and replicates.csv."""
        return {
            "report.json": dumps_17g(self.to_dict()) + "\n",
            "summary.csv": csv_text(
                ("n", "h", "mean", "median", "q10", "q90", "disc_bound"),
                [(c.n, c.h, c.mean, c.median, c.q10, c.q90, c.disc_bound) for c in self.cells],
            ),
            "replicates.csv": csv_text(
                ("n", "h", "replicate", "sup"), [(c.n, c.h, r, v) for c in self.cells for r, v in enumerate(c.sups)]
            ),
        }

    def write(self, out_dir) -> None:
        write_files(out_dir, self.files())


def _deviation_task(args) -> np.ndarray | str:
    """One replicate: sample, evaluate the KDE tables, sup per bandwidth.

    A replicate that raises comes back as its failure message, which the
    report records while the other replicates go on.
    """
    dist_cfg, kernel_cfg, s, n, r, seed, h_values, X, oracle = args
    try:
        dist = distribution_from_config(dist_cfg)
        kernel = kernel_from_config(kernel_cfg)
        est = kde_table(dist.sample(n, seed), kernel, h_values, X, s=s)
        return np.abs(est - oracle).max(axis=1)
    except Exception as exc:
        return f"n={n} replicate={r}: {exc}"


def _run_deviation(config: ExperimentConfig) -> tuple[DeviationReport, dict[str, str]]:
    dist = config.distribution()
    kernel = config.kernel()
    s = config.derivative()
    h_grid = config.bandwidth_grid()
    x_grid = config.eval_grid(dist)
    n_list = config.sample_sizes()
    reps = config.replicates

    oracle = dist.smoothed_derivative_table(kernel, s, h_grid.values, x_grid.points)

    dist_cfg = config.raw["distribution"]
    kernel_cfg = config.raw["kernel"]
    tasks = [
        (dist_cfg, kernel_cfg, s.orders, n, r, config.base_seed + r, h_grid.values, x_grid.points, oracle)
        for n in n_list
        for r in range(reps)
    ]
    workers = _workers()
    if workers == 1 or len(tasks) == 1:
        outcomes = [_deviation_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_deviation_task, t) for t in tasks]
            outcomes = [f.result() for f in futures]

    cells = []
    for k, n in enumerate(n_list):
        sups_by_rep = [o for o in outcomes[k * reps : (k + 1) * reps] if not isinstance(o, str)]
        if not sups_by_rep:
            continue
        mat = np.stack(sups_by_rep, axis=0)  # (replicates, H)
        cells += [
            DeviationCell(int(n), float(h), mat[:, i].copy(), discretization_bound(kernel, s, x_grid.spacing, float(h)))
            for i, h in enumerate(h_grid.values)
        ]
    report = DeviationReport(
        mode=config.mode,
        config_hash=config.config_hash(),
        base_seed=config.base_seed,
        s=s.orders,
        statistic=config.statistic,
        h_values=h_grid.values,
        n_list=n_list,
        grid_size=x_grid.size,
        grid_spacing=x_grid.spacing,
        cells=cells,
        failures=[o for o in outcomes if isinstance(o, str)],
    )
    files = report.files()
    if config.raw.get("export_sample_csv"):
        sample = dist.sample(n_list[0], config.base_seed)
        files["sample.csv"] = csv_text([f"x{i}" for i in range(sample.shape[1])], sample)
    return report, files


def _axis_cells(report: DeviationReport, axis: str) -> tuple[list[DeviationCell], np.ndarray]:
    """The cells sorted along axis "h" or "n", and their axis values; the other axis must be fixed."""
    if axis not in ("h", "n"):
        raise ValueError("axis must be 'h' or 'n'")
    fixed, name = ("n", "sample size") if axis == "h" else ("h", "bandwidth")
    if len({getattr(c, fixed) for c in report.cells}) != 1:
        raise ValueError(f"{axis}-axis fit needs a single {name} in the report")
    cells = sorted(report.cells, key=lambda c: getattr(c, axis))
    return cells, np.array([float(getattr(c, axis)) for c in cells])


def fit_rate(report: DeviationReport, axis: str, statistic: str | None = None) -> RateFit:
    """Log-log OLS slope of the chosen replicate statistic along h or n."""
    statistic = statistic or report.statistic
    if statistic not in ("mean", "median"):
        raise ValueError("statistic must be 'mean' or 'median'")
    cells, xs = _axis_cells(report, axis)
    ys = np.array([getattr(c, statistic) for c in cells])
    if np.any(ys <= 0):
        raise ValueError("zero statistic value: log-log fit undefined")
    return fit_loglog(xs, ys)


def emit_plots(report: DeviationReport, out_dir, statistic: str | None = None) -> list[Path]:
    """Write log-log scatter + fitted-line data as CSV and a standalone SVG.

    One pair of files per available axis; refuses when an axis has a single
    grid point.
    """
    ns = {c.n for c in report.cells}
    hs = {c.h for c in report.cells}
    axes = [axis for axis, varied, fixed in (("h", hs, ns), ("n", ns, hs)) if len(varied) > 1 and len(fixed) == 1]
    if not axes:
        raise ValueError("no axis with at least two grid points and a fixed partner; nothing to plot")
    files = {}
    for axis in axes:
        fit = fit_rate(report, axis, statistic)
        cells, xs = _axis_cells(report, axis)
        log_x = np.log(xs)
        log_medians = np.log([c.median for c in cells])
        fit_vals = fit.slope * log_x + fit.intercept
        files[f"plot_{axis}.csv"] = csv_text(
            (f"log_{axis}", "log_sup_mean", "log_sup_median", "fit_value"),
            zip(log_x, np.log([c.mean for c in cells]), log_medians, fit_vals),
        )
        files[f"plot_{axis}.svg"] = _scatter_svg(log_x, log_medians, fit_vals, f"log {axis}", "log sup deviation")
    write_files(out_dir, files)
    return [Path(out_dir) / name for name in files]


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


def _run_moments(config: ExperimentConfig) -> tuple[dict, dict[str, str]]:
    dist = config.distribution()
    kernel = config.kernel()
    s = config.derivative()
    k = float(config.raw.get("moment", {}).get("k", 2.0))
    h_grid = config.bandwidth_grid()
    x_grid = config.eval_grid(dist)
    values = np.array([max(dist.moment_k(kernel, x, float(h), k, s) for x in x_grid.points) for h in h_grid.values])
    fit = fit_loglog(h_grid.values, values)
    report = {
        "schema": "kderates.moment_report/1",
        "mode": "moment_scaling",
        "config_hash": config.config_hash(),
        "k": k,
        "s": list(s.orders),
        "h_values": [float(h) for h in h_grid.values],
        "values": [float(v) for v in values],
        "fit": {k: v for k, v in asdict(fit).items() if k != "n_points"},
        "analytic_voldim": dist.analytic_voldim,
    }
    return report, {
        "moments.json": dumps_17g(report) + "\n",
        "moments.csv": csv_text(("h", "moment"), zip(h_grid.values, values)),
    }


def _run_voldim(config: ExperimentConfig) -> tuple[dict, dict[str, str]]:
    dist = config.distribution()
    vcfg = config.raw.get("voldim", {})
    x_grid = config.eval_grid(dist)
    if "radii" in vcfg:
        radii = np.asarray([float(r) for r in vcfg["radii"]])
    else:
        radii = dyadic_radii(dist.support_diameter, int(vcfg.get("j_min", 3)), int(vcfg.get("j_max", 8)))
    window = tuple(float(v) for v in vcfg["window"]) if vcfg.get("window") else None
    report: dict = {
        "schema": "kderates.voldim_report/1",
        "mode": "voldim",
        "config_hash": config.config_hash(),
        "analytic_voldim": dist.analytic_voldim,
        "radii": [float(r) for r in radii],
        "fits": {},
    }
    files = {}
    for source in config.voldim_sources():
        data = dist if source == "oracle" else dist.sample(int(vcfg.get("n", 100_000)), config.base_seed)
        sweep = voldim_sweep(data, x_grid, radii)
        fit = fit_loglog(sweep.radii, sweep.sup_probs, window)
        report["fits"][source] = asdict(fit)
        files[f"sweep_{source}.csv"] = radius_sweep_csv(sweep)
    files["voldim.json"] = dumps_17g(report) + "\n"
    return report, files


def _run_bounds(config: ExperimentConfig) -> tuple[dict, dict[str, str]]:
    report = bounds_mod.bound_report(config.bound_spec())
    report["schema"] = "kderates.bound_report/1"
    report["config_hash"] = config.config_hash()
    return report, {"bounds.json": dumps_17g(report) + "\n"}


def _run_covering(config: ExperimentConfig) -> tuple[dict, dict[str, str]]:
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
    for h in h_values:
        for frac in eta_fracs:
            eta = frac * kernel.sup_norm
            emp = bounds_mod.empirical_covering(kernel, h, grid, q_sample, eta)
            bnd = bounds_mod.covering_bound(kernel, h, R, eta)
            rows.append({"h": h, "eta": eta, "empirical": emp, "bound": bnd, "ok": emp <= bnd})
    report = {
        "schema": "kderates.covering_report/1",
        "mode": "covering",
        "config_hash": config.config_hash(),
        "kernel": dict(config.raw["kernel"]),
        "R": R,
        "rows": rows,
        "violations": sum(not row["ok"] for row in rows),
    }
    columns = ("h", "eta", "empirical", "bound", "ok")
    return report, {
        "covering.json": dumps_17g(report) + "\n",
        "covering.csv": csv_text(columns, [[row[c] for c in columns] for row in rows]),
    }


# -- the mode table ---------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    """A mode's CLI subcommand, the config accessors validate() calls (each
    raises ValueError on a malformed part) and its runner, which returns the
    report and {file name: artifact text}."""

    command: str
    parts: tuple[Callable[[ExperimentConfig], object], ...]
    runner: Callable[[ExperimentConfig], tuple[object, dict[str, str]]]


# derivative() builds the kernel it checks the order against
_KDE_PARTS = (ExperimentConfig.distribution, ExperimentConfig.derivative, ExperimentConfig.bandwidth_grid)
_CAMPAIGN_PARTS = (*_KDE_PARTS, ExperimentConfig.sample_sizes)

MODES = {
    "rate_in_h": Mode("simulate", _CAMPAIGN_PARTS, _run_deviation),
    "rate_in_n": Mode("simulate", _CAMPAIGN_PARTS, _run_deviation),
    "moment_scaling": Mode("moments", _KDE_PARTS, _run_moments),
    "voldim": Mode("voldim", (ExperimentConfig.distribution, ExperimentConfig.voldim_sources), _run_voldim),
    "bounds": Mode("bounds", (ExperimentConfig.bound_spec,), _run_bounds),
    "covering": Mode("covering", (ExperimentConfig.kernel,), _run_covering),
}


def run(config: ExperimentConfig, out_dir=None):
    """Execute the experiment described by the config.

    Deterministic given the config (including base_seed); artifacts are
    persisted under ``out_dir`` when given.  Returns the mode-specific
    report object.
    """
    report, files = MODES[config.mode].runner(config)
    if out_dir is not None:
        write_files(out_dir, files)
    return report
