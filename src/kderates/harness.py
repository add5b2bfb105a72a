# harness.py
# Experiment orchestration.  MODES is the one table of experiment modes:
# each entry names the mode's CLI subcommand, the config parts validate()
# builds, and the runner that computes the report and the text of every
# artifact.  run() looks the mode up, runs it, and writes the files through
# kderates.artifacts, which alone decides the byte format; fit_files builds
# the files of `kderates fit`.  Each config value is read, defaulted (from
# _SECTIONS) and checked (by _whole, if a whole number) in the one accessor
# that validate() and its runner both call.
#
# Replicate r of a deviation campaign uses seed base_seed + r.  Replicates
# run on a process pool of at most KDERATES_WORKERS processes (default: the
# usable cores, at most 8) and never more than there are tasks; outcomes,
# failures included, are collected in task order, so parallel and serial
# runs write identical artifacts.  A failed replicate is left out of its
# cells, and every sup keeps the index of the replicate that produced it.

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

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
    "fit_files",
    "dumps_17g",
]

_WORKERS_ENV = "KDERATES_WORKERS"
_VOLDIM_SOURCES = ("oracle", "empirical")
_STATISTICS = ("mean", "median")
# the keys and defaults of each section that validate() does not hand whole
# to a builder with its own key check; None marks a key with no default
# value, required (h_grid.l_n) or optional (the others)
_SECTIONS = {
    "h_grid": {"l_n": None, "h_max": None, "n_points": None, "points_per_decade": 16},
    "x_grid": {"target_size": 256},
    "moment": {"k": 2.0},
    "voldim": {"sources": ["oracle"], "n": 100_000, "j_min": 3, "j_max": 8, "radii": None, "window": None},
    "covering": {"R": 1.0, "h_values": [0.1, 0.2, 0.3, 0.5, 0.8], "eta_fracs": [0.05, 0.1, 0.2, 0.4, 0.8],
                 "grid_size": 64, "q_size": 128},
}
# the keys a config may hold at the top level
_CONFIG_KEYS = (
    "mode", "out_dir", "base_seed", "replicates", "statistic", "n_list", "s", "export_sample_csv",
    "distribution", "kernel", "bounds", *_SECTIONS,
)


def _workers() -> int:
    """KDERATES_WORKERS when set and not empty, else the usable cores capped at 8."""
    env = os.environ.get(_WORKERS_ENV)
    if env:
        if not (env.strip().isdigit() and int(env) > 0):
            raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {env!r}")
        return int(env)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cores, 8)


def _whole(value, name: str, minimum: int) -> int:
    """value as an int; a bool, a string or a fraction raises ValueError, and so does a value below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


# -- configuration --------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description.

    Construct with :meth:`from_dict` or :meth:`from_yaml`; validation reads
    every value the mode's runner reads, through the same accessors.
    """

    mode: str
    raw: dict = field(repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {tuple(MODES)}")

    # accessors: each reads, defaults and checks its values -----------------
    @property
    def base_seed(self) -> int:
        return _whole(self.raw.get("base_seed", 0), "base_seed", 0)

    @property
    def replicates(self) -> int:
        return _whole(self.raw.get("replicates", 1), "replicates", 1)

    @property
    def statistic(self) -> str:
        statistic = self.raw.get("statistic", "median")
        if statistic not in _STATISTICS:
            raise ValueError(f"statistic must be 'mean' or 'median', got {statistic!r}")
        return statistic

    @property
    def export_sample_csv(self) -> bool:
        export = self.raw.get("export_sample_csv", False)
        if not isinstance(export, bool):
            raise ValueError(f"export_sample_csv must be true or false, got {export!r}")
        return export

    @property
    def n_list(self) -> list[int]:
        sizes = self.raw.get("n_list")
        if not isinstance(sizes, list) or not sizes:
            raise ValueError(f"n_list must be a nonempty list of positive sample sizes, got {sizes}")
        return [_whole(n, "each of n_list's positive sample sizes", 1) for n in sizes]

    @property
    def s(self) -> tuple[int, ...]:
        return self.derivative().orders

    def _section(self, key: str):
        if key not in self.raw:
            raise ValueError(f"mode {self.mode!r} needs a {key!r} section")
        return self.raw[key]

    def _part(self, section: str) -> dict:
        """The section's values over its _SECTIONS defaults."""
        return {**_SECTIONS[section], **(self.raw.get(section) or {})}

    def distribution(self) -> ReferenceDistribution:
        return distribution_from_config(self._section("distribution"))

    def kernel(self) -> Kernel:
        return kernel_from_config(self._section("kernel"))

    def derivative(self) -> MultiIndex:
        """s (default zero) as an order the kernel supports."""
        return self.kernel().derivative_index(self.raw.get("s"))

    def bandwidth_grid(self) -> BandwidthGrid:
        g = self._part("h_grid")
        if g["l_n"] is None:
            raise ValueError("h_grid.l_n is required")
        h_max = 4.0 * self.distribution().support_diameter if g["h_max"] is None else float(g["h_max"])
        n_points = None if g["n_points"] is None else _whole(g["n_points"], "h_grid.n_points", 1)
        per_decade = _whole(g["points_per_decade"], "h_grid.points_per_decade", 1)
        return BandwidthGrid.log_spaced(float(g["l_n"]), h_max, n_points, per_decade)

    def eval_grid(self, dist: ReferenceDistribution | None = None) -> EvalGrid:
        return make_eval_grid(dist or self.distribution(), _whole(self._part("x_grid")["target_size"], "x_grid.target_size", 1))

    def config_hash(self) -> str:
        """sha256 of the config as given, without out_dir and with the parsed mode."""
        normalized = {k: v for k, v in self.raw.items() if k != "out_dir"}
        return hashlib.sha256(dumps_17g({**normalized, "mode": self.mode}).encode()).hexdigest()

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
        import yaml  # only a config file needs it; `import kderates` does not load it

        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must contain a mapping")
        return cls.from_dict(data)

    def validate(self) -> None:
        """Check the config's keys and read every value the mode's runner reads; raises ValueError."""
        _check_keys("config", self.raw, _CONFIG_KEYS)
        for section, defaults in _SECTIONS.items():
            _check_keys(section, self.raw.get(section) or {}, defaults)
        for part in (*_COMMON_PARTS, *MODES[self.mode].parts):
            part(self)

    def bound_spec(self) -> bounds_mod.BoundSpec:
        b = dict(self.raw.get("bounds", {}))
        spec_fields = fields(bounds_mod.BoundSpec)
        _check_keys("bounds", b, [f.name for f in spec_fields], [f.name for f in spec_fields if f.default is MISSING])
        return bounds_mod.BoundSpec(**b)

    def covering_spec(self) -> dict:
        """The covering part with defaults filled in; the closed-form bound
        is evaluated once per (h, eta) so that its input checks run here."""
        c = self._part("covering")
        spec = {
            "R": float(c["R"]),
            "h_values": [float(h) for h in c["h_values"]],
            "eta_fracs": [float(e) for e in c["eta_fracs"]],
            "grid_size": _whole(c["grid_size"], "covering.grid_size", 1),
            "q_size": _whole(c["q_size"], "covering.q_size", 1),
        }
        kernel = self.kernel()
        for h in spec["h_values"]:
            for frac in spec["eta_fracs"]:
                bounds_mod.covering_bound(kernel, h, spec["R"], frac * kernel.sup_norm)
        return spec

    def moment_power(self) -> float:
        """moment.k, the power of E|D^s K|^k (default 2)."""
        k = float(self._part("moment")["k"])
        if not k > 0:
            raise ValueError(f"moment.k must be positive, got {k}")
        return k

    def voldim_spec(self) -> dict:
        """The voldim part with defaults filled in; the fit's own checks run here on its radii and window."""
        v = self._part("voldim")
        sources = list(v["sources"])
        unknown = [s for s in sources if s not in _VOLDIM_SOURCES]
        if unknown:
            raise ValueError(f"unknown voldim source(s) {unknown}; choose from {list(_VOLDIM_SOURCES)}")
        n = _whole(v["n"], "voldim.n", 1)
        if v["radii"] is not None:
            radii = np.asarray([float(r) for r in v["radii"]])
        else:
            j_min, j_max = _whole(v["j_min"], "voldim.j_min", 0), _whole(v["j_max"], "voldim.j_max", 0)
            if j_max < j_min:
                raise ValueError(f"voldim.j_max must be >= j_min, got j_min={j_min}, j_max={j_max}")
            radii = dyadic_radii(self.distribution().support_diameter, j_min, j_max)
        if not np.all(radii > 0):
            raise ValueError("voldim.radii must be positive")
        window = tuple(float(w) for w in v["window"]) if v["window"] else None
        if window is not None and len(window) != 2:
            raise ValueError(f"voldim.window must be [r_min, r_max], got {list(window)}")
        fit_loglog(radii, np.ones(radii.size), window)
        return {"sources": sources, "n": n, "radii": radii, "window": window}


def _check_keys(section: str, given, known, required=()) -> None:
    unknown = sorted(set(given) - set(known))
    missing = sorted(set(required) - set(given))
    if unknown or missing:
        raise ValueError(f"{section}: unknown keys {unknown}, missing keys {missing}; known keys {sorted(known)}")


# -- deviation campaign -----------------------------------------------------------


@dataclass(frozen=True)
class DeviationCell:
    n: int
    h: float
    sups: np.ndarray
    disc_bound: float
    # the replicate index of each sup; None when the sups are replicates 0, 1, 2, ...
    replicates: tuple[int, ...] | None = None

    @property
    def replicate_ids(self) -> tuple[int, ...]:
        return tuple(range(self.sups.size)) if self.replicates is None else self.replicates

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

    def to_dict(self) -> dict:
        """The cell's report.json entry; replicates appears only when it is not None."""
        out = {k: v for k, v in asdict(self).items() if v is not None}
        return dict(out, mean=self.mean, median=self.median, q10=self.q10, q90=self.q90)


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
        """The seeds of the replicates that produced a sup in some cell."""
        return [self.base_seed + r for r in sorted({r for c in self.cells for r in c.replicate_ids})]

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
            "cells": [c.to_dict() for c in self.cells],
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeviationReport":
        cells = [
            DeviationCell(
                int(c["n"]),
                float(c["h"]),
                np.asarray(c["sups"], dtype=float),
                float(c["disc_bound"]),
                tuple(int(r) for r in c["replicates"]) if "replicates" in c else None,
            )
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
                ("n", "h", "replicate", "sup"),
                [(c.n, c.h, r, v) for c in self.cells for r, v in zip(c.replicate_ids, c.sups)],
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
    n_list = config.n_list
    reps = config.replicates

    oracle = dist.smoothed_derivative_table(kernel, s, h_grid.values, x_grid.points)

    dist_cfg = config.raw["distribution"]
    kernel_cfg = config.raw["kernel"]
    tasks = [
        (dist_cfg, kernel_cfg, s.orders, n, r, config.base_seed + r, h_grid.values, x_grid.points, oracle)
        for n in n_list
        for r in range(reps)
    ]
    workers = min(_workers(), len(tasks))
    if workers == 1:
        outcomes = [_deviation_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_deviation_task, t) for t in tasks]
            outcomes = [f.result() for f in futures]

    cells = []
    for k, n in enumerate(n_list):
        done = {r: o for r, o in enumerate(outcomes[k * reps : (k + 1) * reps]) if not isinstance(o, str)}
        if not done:
            continue
        mat = np.stack(list(done.values()), axis=0)  # (replicates, H)
        ids = None if len(done) == reps else tuple(done)
        cells += [
            DeviationCell(n, float(h), mat[:, i].copy(), discretization_bound(kernel, s, x_grid.spacing, float(h)), ids)
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
    if config.export_sample_csv:
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
    if statistic not in _STATISTICS:
        raise ValueError("statistic must be 'mean' or 'median'")
    cells, xs = _axis_cells(report, axis)
    return fit_loglog(xs, [getattr(c, statistic) for c in cells])


def fit_files(report: DeviationReport, axis: str, statistic: str | None = None) -> tuple[RateFit, dict[str, str]]:
    """The fit along axis and the files of `kderates fit`: fit_{axis}.json and
    the log-log scatter with its fitted line, as CSV and as a standalone SVG."""
    fit = fit_rate(report, axis, statistic)
    cells, xs = _axis_cells(report, axis)
    log_x = np.log(xs)
    log_medians = np.log([c.median for c in cells])
    fit_vals = fit.slope * log_x + fit.intercept
    payload = {k: v for k, v in asdict(fit).items() if k != "r_window"}
    payload.update(axis=axis, statistic=statistic or report.statistic)
    return fit, {
        f"fit_{axis}.json": dumps_17g(payload) + "\n",
        f"plot_{axis}.csv": csv_text(
            (f"log_{axis}", "log_sup_mean", "log_sup_median", "fit_value"),
            zip(log_x, np.log([c.mean for c in cells]), log_medians, fit_vals),
        ),
        f"plot_{axis}.svg": _scatter_svg(log_x, log_medians, fit_vals, f"log {axis}", "log sup deviation"),
    }


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
    k = config.moment_power()
    h_grid = config.bandwidth_grid()
    x_grid = config.eval_grid(dist)
    values = dist.moment_table(kernel, s, h_grid.values, x_grid.points, k).max(axis=1)
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
    spec = config.voldim_spec()
    x_grid = config.eval_grid(dist)
    radii = spec["radii"]
    report: dict = {
        "schema": "kderates.voldim_report/1",
        "mode": "voldim",
        "config_hash": config.config_hash(),
        "analytic_voldim": dist.analytic_voldim,
        "radii": [float(r) for r in radii],
        "fits": {},
    }
    files = {}
    for source in spec["sources"]:
        data = dist if source == "oracle" else dist.sample(spec["n"], config.base_seed)
        sweep = voldim_sweep(data, x_grid, radii)
        fit = fit_loglog(sweep.radii, sweep.sup_probs, spec["window"])
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
    spec = config.covering_spec()
    R, grid_size = spec["R"], spec["grid_size"]
    d = kernel.dim
    rng = np.random.Generator(np.random.Philox(key=config.base_seed))
    if d == 1:
        grid = np.linspace(-R, R, grid_size).reshape(-1, 1)
    else:
        k = max(2, int(round((grid_size * 2**d / math.pi) ** (1.0 / d))))
        axes = [np.linspace(-R, R, k)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        grid = grid[np.linalg.norm(grid, axis=1) <= R]
    q_sample = rng.uniform(-R, R, size=(spec["q_size"], d))
    rows = []
    for h in spec["h_values"]:
        for frac in spec["eta_fracs"]:
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
_KDE_PARTS = (
    ExperimentConfig.distribution,
    ExperimentConfig.derivative,
    ExperimentConfig.bandwidth_grid,
    ExperimentConfig.eval_grid,
)
_CAMPAIGN_PARTS = (*_KDE_PARTS, ExperimentConfig.n_list.fget)
# the top-level values, read under every mode
_COMMON_PARTS = tuple(getattr(ExperimentConfig, k).fget for k in ("base_seed", "replicates", "statistic", "export_sample_csv"))

MODES = {
    "rate_in_h": Mode("simulate", _CAMPAIGN_PARTS, _run_deviation),
    "rate_in_n": Mode("simulate", _CAMPAIGN_PARTS, _run_deviation),
    "moment_scaling": Mode("moments", (*_KDE_PARTS, ExperimentConfig.moment_power), _run_moments),
    "voldim": Mode(
        "voldim", (ExperimentConfig.distribution, ExperimentConfig.eval_grid, ExperimentConfig.voldim_spec), _run_voldim
    ),
    "bounds": Mode("bounds", (ExperimentConfig.bound_spec,), _run_bounds),
    "covering": Mode("covering", (ExperimentConfig.covering_spec,), _run_covering),
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
