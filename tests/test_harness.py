import json
import math
import multiprocessing
import os
import subprocess
import sys
import xml.etree.ElementTree as etree
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import yaml

import kderates
from kderates import harness
from kderates.harness import MODES, DeviationReport, ExperimentConfig, dumps_17g, fit_files, fit_rate, run
from kderates.cli import _build_parser, main as cli_main
from kderates.distributions import UniformCircle, UniformCube, distribution_from_config
from kderates.kde import kde_table
from kderates.kernels import Kernel, kernel_from_config

_RATE_CFG = {
    "mode": "rate_in_h",
    "distribution": {"kind": "uniform_cube", "dim": 1},
    "kernel": {"form": "gaussian", "dim": 1},
    "n_list": [2000],
    "h_grid": {"l_n": 0.1, "h_max": 0.4, "n_points": 5},
    "x_grid": {"target_size": 21},
    "replicates": 4,
    "base_seed": 77,
    "statistic": "median",
}

_MOMENT_CFG = {
    "mode": "moment_scaling",
    "distribution": {"kind": "uniform_cube", "dim": 1},
    "kernel": {"form": "gaussian", "dim": 1},
    "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 4},
}
_VOLDIM_CFG = {"mode": "voldim", "distribution": {"kind": "uniform_circle", "radius": 1.0}}
_COVERING_CFG = {"mode": "covering", "kernel": {"form": "gaussian", "dim": 2}}

# the source tree, for subprocesses, which do not inherit pytest's import path
_SRC = str(Path(kderates.__file__).resolve().parents[1])


def small_rate_config(mode="rate_in_h", **overrides):
    return ExperimentConfig.from_dict({**_RATE_CFG, "mode": mode, **overrides})


class TestConfig:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "mode": "rate_in_h",
                    "distribution": {"kind": "uniform_circle", "radius": 1.0},
                    "kernel": {"form": "gaussian", "dim": 2},
                    "n_list": [1000],
                    "h_grid": {"l_n": 0.1, "h_max": 0.3, "n_points": 4},
                    "replicates": 2,
                    "base_seed": 5,
                }
            )
        )
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg.mode == "rate_in_h"
        assert cfg.replicates == 2
        assert isinstance(cfg.distribution(), UniformCircle)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"mode": "nope"})

    def test_unconstructible_distribution(self):
        with pytest.raises(ValueError):
            small_rate_config(distribution={"kind": "unbounded_ball", "dim": 2, "beta": 3.0})

    def test_unknown_voldim_source(self):
        with pytest.raises(ValueError, match="emprical"):
            ExperimentConfig.from_dict(
                {"mode": "voldim", "distribution": _CIRCLE, "voldim": {"sources": ["oracle", "emprical"]}}
            )

    def test_moments_need_h_grid(self):
        with pytest.raises(ValueError, match="l_n"):
            ExperimentConfig.from_dict({"mode": "moment_scaling", "distribution": _CIRCLE, "kernel": _GAUSS2})

    def test_moments_derivative_order_checked(self):
        with pytest.raises(ValueError, match="derivative order"):
            ExperimentConfig.from_dict(
                {
                    "mode": "moment_scaling",
                    "distribution": {"kind": "uniform_cube", "dim": 1},
                    "kernel": {"form": "epanechnikov", "dim": 1},
                    "s": [1],
                    "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 4},
                }
            )

    @pytest.mark.parametrize("part", [{"h_values": [-0.1]}, {"eta_fracs": [2.0]}])
    def test_covering_part_checked(self, part):
        with pytest.raises(ValueError, match="must"):
            ExperimentConfig.from_dict({"mode": "covering", "kernel": _GAUSS2, "covering": part})

    def test_unknown_bounds_key(self):
        bounds = {"n": 1000, "l_n": 0.1, "d": 2, "d_vol": 1.0, "delta": 0.05, "sigma": 0.5}
        with pytest.raises(ValueError, match="sigma"):
            ExperimentConfig.from_dict({"mode": "bounds", "bounds": bounds})

    @pytest.mark.parametrize("key", ["R", "M_K"])
    def test_removed_bounds_field_rejected(self, key):
        bounds = {"n": 1000, "l_n": 0.1, "d": 2, "d_vol": 1.0, "delta": 0.05, key: 1.0}
        with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
            ExperimentConfig.from_dict({"mode": "bounds", "bounds": bounds})

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({**_RATE_CFG, "replicats": 20}, "replicats"),
            ({**_RATE_CFG, "h_grid": {"l_n": 0.1, "hmax": 0.4}}, "hmax"),
            ({**_RATE_CFG, "x_grid": {"target_sise": 21}}, "target_sise"),
            ({"mode": "voldim", "distribution": {"kind": "uniform_cube", "dim": 1}, "voldim": {"source": ["oracle"]}}, "source"),
            (
                {
                    "mode": "moment_scaling",
                    "distribution": {"kind": "uniform_cube", "dim": 1},
                    "kernel": {"form": "gaussian", "dim": 1},
                    "moment": {"K": 3.0},
                    "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 4},
                },
                "K",
            ),
            ({"mode": "voldim", "distribution": {"kind": "uniform_circle", "dim": 5}}, "dim"),
        ],
        ids=["replicates", "h_grid.h_max", "x_grid.target_size", "voldim.sources", "moment.k", "uniform_circle.dim"],
    )
    def test_misspelled_key_rejected(self, cfg, key):
        with pytest.raises(ValueError, match=f"unknown .*'{key}'"):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"h_grid": {**_RATE_CFG["h_grid"], "l_n": math.nan}}, "l_n=nan"),
            ({"h_grid": {**_RATE_CFG["h_grid"], "h_max": math.inf}}, "h_max=inf"),
            ({"x_grid": {"target_size": -4}}, "x_grid.target_size must be >= 1, got -4"),
            ({"n_list": [0]}, "positive sample sizes"),
            (
                {"distribution": {"kind": "uniform_sphere", "manifold_dim": 3}, "kernel": {"form": "gaussian", "dim": 4}},
                "manifold_dim <= 2",
            ),
        ],
        ids=["h_grid.l_n_nan", "h_grid.h_max_inf", "x_grid.target_size_negative", "n_list_zero", "sphere3_lattice"],
    )
    def test_bad_value_rejected_before_run(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({**_RATE_CFG, **overrides})

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({**_MOMENT_CFG, "moment": {"k": -1}}, "moment.k must be positive"),
            ({**_MOMENT_CFG, "moment": {"k": "a"}}, "could not convert"),
            ({**_VOLDIM_CFG, "voldim": {"sources": ["empirical"], "n": 0}}, "voldim.n must be >= 1"),
            ({**_VOLDIM_CFG, "voldim": {"radii": [-0.1, 0.2, 0.3, 0.4]}}, "voldim.radii must be positive"),
            ({**_VOLDIM_CFG, "voldim": {"window": [0.1]}}, r"voldim.window must be \[r_min, r_max\]"),
            ({**_VOLDIM_CFG, "voldim": {"j_min": 8, "j_max": 3}}, "voldim.j_max must be >= j_min"),
            ({**_RATE_CFG, "statistic": "foo"}, "statistic must be 'mean' or 'median'"),
        ],
        ids=["moment.k_negative", "moment.k_string", "voldim.n_zero", "voldim.radii_negative", "voldim.window_short",
             "voldim.j_reversed", "statistic"],
    )
    def test_runner_value_rejected_at_validation(self, cfg, message):
        # each of these validated once and then failed inside run()
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({**_RATE_CFG, "base_seed": -1}, "base_seed must be >= 0, got -1"),
            ({**_RATE_CFG, "base_seed": "a"}, "base_seed must be an integer, got 'a'"),
            ({**_RATE_CFG, "base_seed": 1.9}, "base_seed must be an integer, got 1.9"),
            ({**_RATE_CFG, "replicates": 2.5}, "replicates must be an integer, got 2.5"),
            ({**_RATE_CFG, "replicates": True}, "replicates must be an integer, got True"),
            ({**_RATE_CFG, "n_list": [200.7]}, "n_list's positive sample sizes must be an integer, got 200.7"),
            ({**_RATE_CFG, "x_grid": {"target_size": 8.9}}, "x_grid.target_size must be an integer, got 8.9"),
            ({**_RATE_CFG, "h_grid": {**_RATE_CFG["h_grid"], "n_points": 2.5}}, "h_grid.n_points must be an integer"),
            ({**_RATE_CFG, "h_grid": {"l_n": 0.1, "points_per_decade": 2.5}}, "h_grid.points_per_decade must be an integer"),
            ({**_RATE_CFG, "export_sample_csv": "false"}, "export_sample_csv must be true or false, got 'false'"),
            ({**_RATE_CFG, "s": [1.5]}, r"multi-index components must be nonnegative integers, got \(1.5,\)"),
            ({**_VOLDIM_CFG, "voldim": {"n": 2.5}}, "voldim.n must be an integer, got 2.5"),
            ({**_VOLDIM_CFG, "voldim": {"j_min": 2.5}}, "voldim.j_min must be an integer, got 2.5"),
            ({**_VOLDIM_CFG, "voldim": {"j_max": "6"}}, "voldim.j_max must be an integer, got '6'"),
            ({**_COVERING_CFG, "covering": {"grid_size": 32.5}}, "covering.grid_size must be an integer"),
            ({**_COVERING_CFG, "covering": {"q_size": 0}}, "covering.q_size must be >= 1, got 0"),
        ],
        ids=["base_seed_negative", "base_seed_string", "base_seed_fraction", "replicates_fraction", "replicates_bool",
             "n_list_fraction", "x_grid.target_size_fraction", "h_grid.n_points_fraction", "h_grid.points_per_decade_fraction",
             "export_sample_csv_string", "s_fraction", "voldim.n_fraction", "voldim.j_min_fraction", "voldim.j_max_string",
             "covering.grid_size_fraction", "covering.q_size_zero"],
    )
    def test_value_the_run_would_change_rejected(self, cfg, message):
        # each of these validated once, and the run then truncated it, failed
        # on it, or read a string as a number or as true
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_readme_config_schema_validates(self, mode):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config schema (YAML)", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        ExperimentConfig.from_dict({**yaml.safe_load(block), "mode": mode})

    def test_voldim_needs_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            ExperimentConfig.from_dict({"mode": "voldim", "voldim": {"sources": ["oracle"]}})

    @pytest.mark.parametrize(
        "distribution, missing", [({"dim": 2}, "kind"), ({"kind": "uniform_cube"}, "dim")], ids=["no_kind", "no_dim"]
    )
    def test_distribution_needs_kind_and_parameters(self, distribution, missing):
        with pytest.raises(ValueError, match=missing):
            ExperimentConfig.from_dict({"mode": "voldim", "distribution": distribution})

    def test_hash_changes_with_seed_not_outdir(self):
        a = small_rate_config()
        b = small_rate_config(base_seed=78)
        assert a.config_hash() != b.config_hash()
        c = small_rate_config(out_dir="elsewhere")
        assert a.config_hash() == c.config_hash()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(small_rate_config(), out)
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"artifact {name} differs between reruns"

    def test_parallel_equals_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        run(small_rate_config(), tmp_path / "serial")
        monkeypatch.setenv("KDERATES_WORKERS", "2")
        run(small_rate_config(), tmp_path / "par")
        for name in ("report.json", "summary.csv", "replicates.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched sampler must reach the workers")
    def test_failed_replicates_same_serial_and_parallel(self, tmp_path, monkeypatch):
        real_sample = UniformCube.sample

        def sample(self, n, seed):
            if seed in (78, 87):  # replicates 1 and 10
                raise RuntimeError("stub failure")
            return real_sample(self, n, seed)

        monkeypatch.setattr(UniformCube, "sample", sample)
        cfg = small_rate_config(n_list=[500, 2000], replicates=11, h_grid={"l_n": 0.1, "h_max": 0.4, "n_points": 2})
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        serial = run(cfg, tmp_path / "serial")
        monkeypatch.setenv("KDERATES_WORKERS", "2")
        run(cfg, tmp_path / "par")
        assert serial.failures == [f"n={n} replicate={r}: stub failure" for n in (500, 2000) for r in (1, 10)]
        assert all(c.sups.size == 9 for c in serial.cells)
        for name in ("report.json", "summary.csv", "replicates.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched sampler must reach the workers")
    def test_killed_worker_raises(self, tmp_path, monkeypatch):
        parent, real_sample = os.getpid(), UniformCube.sample

        def sample(self, n, seed):
            if os.getpid() != parent and seed == 78:
                os._exit(1)
            return real_sample(self, n, seed)

        monkeypatch.setattr(UniformCube, "sample", sample)
        monkeypatch.setenv("KDERATES_WORKERS", "2")
        with pytest.raises(BrokenProcessPool):
            run(small_rate_config(), tmp_path)

    def test_point_mass_sample_all_zero(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = small_rate_config(
            distribution={"kind": "point_masses", "locations": [[0.0]], "weights": [1.0]},
            n_list=[64],
            x_grid={"target_size": 4},
        )
        report = run(cfg, tmp_path)
        assert all(np.all(c.sups == 0.0) for c in report.cells)


class TestReports:
    def test_report_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        report = run(small_rate_config(), tmp_path)
        loaded = DeviationReport.load(tmp_path / "report.json")
        assert loaded.config_hash == report.config_hash
        assert len(loaded.cells) == len(report.cells)
        for a, b in zip(loaded.cells, report.cells):
            assert a.n == b.n and a.h == pytest.approx(b.h)
            assert np.allclose(a.sups, b.sups, rtol=0, atol=0)

    def test_summary_quantiles_ordered(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        report = run(small_rate_config(replicates=8), tmp_path)
        for c in report.cells:
            assert c.q10 <= c.median <= c.q90
            assert c.sups.size == 8

    def test_seeds_follow_base(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        report = run(small_rate_config(base_seed=100, replicates=3), tmp_path)
        assert report.seeds == [100, 101, 102]

    def test_failed_replicates_keep_their_labels(self, tmp_path, monkeypatch):
        # replicate 1 fails at both sample sizes, replicate 10 at n = 500 only
        real_sample = UniformCube.sample

        def sample(self, n, seed):
            if seed == 78 or (seed == 87 and n == 500):
                raise RuntimeError("stub failure")
            return real_sample(self, n, seed)

        monkeypatch.setattr(UniformCube, "sample", sample)
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = small_rate_config(n_list=[500, 2000], replicates=11, h_grid={"l_n": 0.1, "h_max": 0.4, "n_points": 2})
        report = run(cfg, tmp_path / "a")
        alive = {500: [0, *range(2, 10)], 2000: [0, *range(2, 11)]}
        assert report.seeds == [77, *range(79, 88)]
        rows = (tmp_path / "a" / "replicates.csv").read_text().splitlines()[1:]
        for n, want in alive.items():
            for h in report.h_values:
                sups = report.cell(n, h).sups
                got = [(int(r), float(v)) for n_, h_, r, v in (row.split(",") for row in rows) if int(n_) == n and float(h_) == h]
                assert got == [(r, float(v)) for r, v in zip(want, sups)], (n, h)
        # a replicate's sup keeps its label at every n: replicate 2 is the second value at n = 500
        with monkeypatch.context() as patch:
            patch.setattr(UniformCube, "sample", real_sample)
            whole = run(cfg, tmp_path / "whole")
        for c in report.cells:
            assert list(c.sups) == [whole.cell(c.n, c.h).sups[r] for r in c.replicate_ids]
        loaded = DeviationReport.load(tmp_path / "a" / "report.json")
        assert loaded.seeds == report.seeds
        assert [c.replicate_ids for c in loaded.cells] == [c.replicate_ids for c in report.cells]
        loaded.write(tmp_path / "b")
        for name in ("report.json", "summary.csv", "replicates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert "replicates" not in json.loads((tmp_path / "whole" / "report.json").read_text())["cells"][0]


class TestWorkers:
    @pytest.fixture
    def sizes(self, monkeypatch):
        """The max_workers of every pool the harness opens; a stand-in pool runs each task at submit, in this process."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        return sizes

    @pytest.mark.parametrize(
        "workers, n_list, replicates, want",
        [("64", [2000], 2, [2]), ("2", [2000], 3, [2]), ("64", [500, 2000], 3, [6]), ("1", [2000], 3, [])],
    )
    def test_pool_never_larger_than_the_tasks(self, sizes, tmp_path, monkeypatch, workers, n_list, replicates, want):
        monkeypatch.setenv("KDERATES_WORKERS", workers)
        run(small_rate_config(n_list=n_list, replicates=replicates), tmp_path)
        assert sizes == want

    @pytest.mark.parametrize("cores, want", [(3, 3), (20, 8)])
    def test_default_from_cpu_affinity(self, monkeypatch, cores, want):
        monkeypatch.delenv("KDERATES_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        assert harness._workers() == want

    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
    def test_not_a_positive_integer(self, sizes, tmp_path, monkeypatch, value):
        monkeypatch.setenv("KDERATES_WORKERS", value)
        with pytest.raises(ValueError, match=f"KDERATES_WORKERS must be a positive integer, got '{value}'"):
            run(small_rate_config(), tmp_path)
        assert sizes == []


class TestFitRate:
    def test_synthetic_power_law(self):
        hs = np.geomspace(0.05, 0.4, 8)
        cells = []
        from kderates.harness import DeviationCell

        for h in hs:
            cells.append(DeviationCell(n=1000, h=float(h), sups=np.full(3, 2.0 * h**-1.5), disc_bound=0.0))
        report = DeviationReport(
            mode="rate_in_h",
            config_hash="x",
            base_seed=0,
            s=(0,),
            statistic="median",
            h_values=hs,
            n_list=[1000],
            grid_size=10,
            grid_spacing=0.1,
            cells=cells,
        )
        fit = fit_rate(report, "h")
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)

    def test_axis_requirements(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        report = run(small_rate_config(), tmp_path)
        with pytest.raises(ValueError):
            fit_rate(report, "n")
        with pytest.raises(ValueError):
            fit_rate(report, "radius")

    def test_mean_ratios_within_residual_band(self, tmp_path, monkeypatch):
        # internal consistency: every log mean lies within the fitted
        # residual band, so mean(h1)/mean(h2) matches the fitted power law
        # up to exp(2 * residual)
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        report = run(small_rate_config(n_list=[5000], replicates=6), tmp_path)
        fit = fit_rate(report, "h", "mean")
        for c in report.cells:
            predicted = fit.slope * math.log(c.h) + fit.intercept
            assert abs(math.log(c.mean) - predicted) <= fit.residual + 1e-12

    def test_rate_in_n_mode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = small_rate_config(
            mode="rate_in_n",
            n_list=[500, 1000, 2000, 4000, 8000],
            h_grid={"l_n": 0.15, "h_max": 0.15, "n_points": 1},
            replicates=6,
        )
        report = run(cfg, tmp_path)
        fit = fit_rate(report, "n")
        assert fit.slope == pytest.approx(-0.5, abs=0.2)


class TestEmitPlots:
    def test_csv_header_and_svg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        report = run(small_rate_config(), tmp_path / "run")
        fit, files = fit_files(report, "h")
        assert sorted(files) == ["fit_h.json", "plot_h.csv", "plot_h.svg"]
        assert fit == fit_rate(report, "h")
        header = files["plot_h.csv"].splitlines()[0]
        assert header == "log_h,log_sup_mean,log_sup_median,fit_value"
        root = etree.fromstring(files["plot_h.svg"])  # well-formed XML
        assert root.tag.endswith("svg")

    def test_refuses_empty_axis(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = small_rate_config(h_grid={"l_n": 0.2, "h_max": 0.2, "n_points": 1})
        report = run(cfg, tmp_path)
        for axis in ("h", "n"):
            with pytest.raises(ValueError, match="at least 4 points"):
                fit_files(report, axis)


class TestOtherModes:
    def test_moment_scaling_passthrough(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "mode": "moment_scaling",
                "distribution": {"kind": "uniform_circle", "radius": 1.0},
                "kernel": {"form": "gaussian", "dim": 2},
                "moment": {"k": 2.0},
                "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 6},
                "x_grid": {"target_size": 16},
                "base_seed": 3,
            }
        )
        report = run(cfg, tmp_path)
        dist = distribution_from_config(cfg.raw["distribution"])
        kern = kernel_from_config(cfg.raw["kernel"])
        grid = __import__("kderates.kde", fromlist=["make_eval_grid"]).make_eval_grid(dist, 16)
        for h, v in zip(report["h_values"], report["values"]):
            expected = max(dist.moment_k(kern, x, h, 2.0) for x in grid.points)
            assert v == pytest.approx(expected, rel=1e-12)
        assert (tmp_path / "moments.csv").read_text().splitlines()[0] == "h,moment"

    def test_voldim_mode(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "mode": "voldim",
                "distribution": {"kind": "unbounded_ball", "dim": 2, "beta": 1.0},
                "x_grid": {"target_size": 24},
                "voldim": {"sources": ["oracle", "empirical"], "n": 20000, "j_min": 2, "j_max": 7},
                "base_seed": 9,
            }
        )
        report = run(cfg, tmp_path)
        assert report["fits"]["oracle"]["slope"] == pytest.approx(1.0, abs=1e-9)
        assert report["fits"]["empirical"]["slope"] == pytest.approx(1.0, abs=0.2)
        assert (tmp_path / "sweep_oracle.csv").exists()

    def test_bounds_mode(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "mode": "bounds",
                "bounds": {"n": 100000, "l_n": 0.1, "d": 2, "d_vol": 1.0, "delta": 0.05},
                "base_seed": 0,
            }
        )
        report = run(cfg, tmp_path)
        data = json.loads((tmp_path / "bounds.json").read_text())
        assert data["upper_bound_ray"]["total"] == pytest.approx(report["upper_bound_ray"]["total"])

    def test_covering_mode(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "mode": "covering",
                "kernel": {"form": "gaussian", "dim": 1},
                "covering": {"h_values": [0.2, 0.5], "eta_fracs": [0.1, 0.5], "grid_size": 32, "q_size": 64},
                "base_seed": 4,
            }
        )
        report = run(cfg, tmp_path)
        assert report["violations"] == 0
        lines = (tmp_path / "covering.csv").read_text().splitlines()
        assert lines[0] == "h,eta,empirical,bound,ok"
        assert len(lines) == 5


class TestSerialization:
    def test_dumps_17g_roundtrip(self):
        obj = {"a": 1 / 3, "b": [1, 2.5e-17, True, None], "c": {"nested": 0.1}}
        text = dumps_17g(obj)
        back = json.loads(text)
        assert back["a"] == 1 / 3
        assert back["b"][1] == 2.5e-17
        assert back["c"]["nested"] == 0.1

    def test_dumps_nonfinite(self):
        text = dumps_17g({"x": math.inf, "y": math.nan})
        back = json.loads(text)
        assert back == {"x": "inf", "y": "nan"}


class TestCli:
    def write_cfg(self, tmp_path, extra=None):
        cfg = {
            "mode": "rate_in_h",
            "distribution": {"kind": "uniform_cube", "dim": 1},
            "kernel": {"form": "gaussian", "dim": 1},
            "n_list": [500],
            "h_grid": {"l_n": 0.1, "h_max": 0.4, "n_points": 5},
            "x_grid": {"target_size": 11},
            "replicates": 3,
            "base_seed": 12,
        }
        cfg.update(extra or {})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    def test_simulate_and_fit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert cli_main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "fit_h.json").exists()
        assert (out / "plot_h.csv").exists()

    def test_failed_replicates_exit_1(self, tmp_path, monkeypatch, capsys):
        real_sample = UniformCube.sample

        def sample(self, n, seed):
            if seed == 13:  # replicate 1
                raise RuntimeError("stub failure")
            return real_sample(self, n, seed)

        monkeypatch.setattr(UniformCube, "sample", sample)
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = self.write_cfg(tmp_path)
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
        assert "1 replicate failure(s)" in capsys.readouterr().err
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--allow-failures"]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["failures"] == ["n=500 replicate=1: stub failure"]
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()

    def test_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = self.write_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli_main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "99"])
        cli_main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "12"])
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        assert a["base_seed"] == 99 and b["base_seed"] == 12
        assert a["config_hash"] != b["config_hash"]

    def test_seed_override_validated(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError" and err["error"] == "base_seed must be >= 0, got -1"
        assert not (tmp_path / "o").exists()

    def test_fit_takes_no_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(["fit", "--config", str(self.write_cfg(tmp_path)), "--seed", "1"])
        assert "--seed" in capsys.readouterr().err

    def test_mode_mismatch_errors(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        rc = cli_main(["voldim", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_subprocess_entry(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "sp"
        proc = subprocess.run(
            [sys.executable, "-m", "kderates", "simulate", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "KDERATES_WORKERS": "1", "PYTHONPATH": _SRC},
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.csv").exists()


# -- derivative orders ----------------------------------------------------------------

_EPAN2 = Kernel.epanechnikov(2)
_DERIVATIVE_ENTRY_POINTS = {
    "kde_table": lambda s: kde_table(np.zeros((3, 2)), _EPAN2, [0.3], np.zeros((1, 2)), s=s),
    "smoothed_derivative_table": lambda s: UniformCube(2).smoothed_derivative_table(_EPAN2, s, [0.3], np.zeros((1, 2))),
    "moment_table": lambda s: UniformCube(2).moment_table(_EPAN2, s, [0.3], np.zeros((1, 2)), 2.0),
    "deriv_eval_many": lambda s: _EPAN2.deriv_eval_many(s, np.zeros((1, 2))),
    "deriv_sup_norm": lambda s: _EPAN2.deriv_sup_norm(s),
    "ExperimentConfig.from_dict": lambda s: ExperimentConfig.from_dict(
        {
            "mode": "moment_scaling",
            "distribution": {"kind": "uniform_cube", "dim": 2},
            "kernel": {"form": "epanechnikov", "dim": 2},
            "s": list(s),
            "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 4},
        }
    ),
}


@pytest.mark.parametrize("entry", sorted(_DERIVATIVE_ENTRY_POINTS))
def test_unsupported_derivative_order_one_message(entry):
    with pytest.raises(ValueError) as info:
        _DERIVATIVE_ENTRY_POINTS[entry]((1, 0))
    assert str(info.value) == "derivative order |s|=1 unsupported by the epanechnikov kernel"


# -- golden artifacts ---------------------------------------------------------------

_CUBE2 = {"kind": "uniform_cube", "dim": 2}
_CIRCLE = {"kind": "uniform_circle", "radius": 1.0}
_GAUSS2 = {"form": "gaussian", "dim": 2}


def _golden_rate(mode, distribution, kernel, **extra):
    cfg = {
        "mode": mode,
        "distribution": distribution,
        "kernel": kernel,
        "n_list": [2000],
        "h_grid": {"l_n": 0.08, "h_max": 0.4, "n_points": 3},
        "x_grid": {"target_size": 40},
        "replicates": 2,
        "base_seed": 41,
    }
    cfg.update(extra)
    return cfg


def _golden_moments(distribution, kernel, **extra):
    cfg = {
        "mode": "moment_scaling",
        "distribution": distribution,
        "kernel": kernel,
        "moment": {"k": 2.0},
        "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 4},
        "x_grid": {"target_size": 9},
    }
    cfg.update(extra)
    return cfg


# Each config covers one oracle route; the artifacts are hashed whole.
_GOLDEN_CONFIGS = {
    "cube1_s1": _golden_rate("rate_in_h", {"kind": "uniform_cube", "dim": 1}, {"form": "gaussian", "dim": 1}, s=[1]),
    "cube2": _golden_rate("rate_in_h", _CUBE2, _GAUSS2),
    "circle": _golden_rate("rate_in_n", _CIRCLE, _GAUSS2, n_list=[500, 2000], h_grid={"l_n": 0.15, "n_points": 1}),
    "ball": _golden_rate(
        "rate_in_h", {"kind": "unbounded_ball", "dim": 2, "beta": 1.0}, _GAUSS2, x_grid={"target_size": 24}
    ),
    "sphere2": _golden_rate(
        "rate_in_h", {"kind": "uniform_sphere", "manifold_dim": 2}, {"form": "gaussian", "dim": 3}, x_grid={"target_size": 20}
    ),
    "point_masses": _golden_rate(
        "rate_in_h",
        {"kind": "point_masses", "locations": [[0.0, 0.0], [0.5, 0.25]], "weights": [0.25, 0.75]},
        _GAUSS2,
    ),
    "mixture": _golden_rate(
        "rate_in_h", {"kind": "mixture", "components": [_CIRCLE, _CUBE2], "weights": [0.4, 0.6]}, _GAUSS2
    ),
    "moments_epan_cube1": {
        "mode": "moment_scaling",
        "distribution": {"kind": "uniform_cube", "dim": 1},
        "kernel": {"form": "epanechnikov", "dim": 1},
        "moment": {"k": 2.0},
        "h_grid": {"l_n": 0.05, "h_max": 0.4, "n_points": 5},
        "x_grid": {"target_size": 9},
    },
    "voldim_oracle": {
        "mode": "voldim",
        "distribution": _CIRCLE,
        "x_grid": {"target_size": 16},
        "voldim": {"sources": ["oracle"], "j_min": 2, "j_max": 6},
    },
    "voldim_both": {
        "mode": "voldim",
        "distribution": {"kind": "unbounded_ball", "dim": 2, "beta": 1.0},
        "x_grid": {"target_size": 12},
        "voldim": {"sources": ["oracle", "empirical"], "n": 4000, "j_min": 2, "j_max": 6},
        "base_seed": 9,
    },
    "bounds_sigma2": {
        "mode": "bounds",
        "bounds": {"n": 100000, "l_n": 0.1, "d": 2, "d_vol": 1.0, "delta": 0.05, "sigma2_const": 0.5},
    },
    "covering": {
        "mode": "covering",
        "kernel": _GAUSS2,
        "covering": {"h_values": [0.2, 0.5], "eta_fracs": [0.1, 0.5], "grid_size": 32, "q_size": 64},
        "base_seed": 4,
    },
    "moments_gauss_circle": _golden_moments(_CIRCLE, _GAUSS2, x_grid={"target_size": 16}),
    "moments_gauss_cube2_s10": _golden_moments(_CUBE2, _GAUSS2, s=[1, 0]),
    "moments_gauss_circle_s10": _golden_moments(_CIRCLE, _GAUSS2, s=[1, 0], x_grid={"target_size": 16}),
    "moments_point_masses_s10": _golden_moments(
        {"kind": "point_masses", "locations": [[0.0, 0.0], [0.5, 0.25], [-0.3, 0.7]], "weights": [0.2, 0.3, 0.5]},
        _GAUSS2,
        s=[1, 0],
        moment={"k": 3.0},
    ),
    "moments_gauss_mixture": _golden_moments(
        {"kind": "mixture", "components": [_CIRCLE, _CUBE2], "weights": [0.4, 0.6]}, _GAUSS2, x_grid={"target_size": 16}
    ),
    "moments_epan_sphere2": _golden_moments(
        {"kind": "uniform_sphere", "manifold_dim": 2}, {"form": "epanechnikov", "dim": 3}, x_grid={"target_size": 12}
    ),
    "moments_epan_ball1": _golden_moments(
        {"kind": "unbounded_ball", "dim": 1, "beta": 0.5}, {"form": "epanechnikov", "dim": 1}
    ),
    "ball_s01": _golden_rate(
        "rate_in_h", {"kind": "unbounded_ball", "dim": 2, "beta": 1.0}, _GAUSS2, s=[0, 1], x_grid={"target_size": 6}
    ),
    "voldim_oracle_cube2": {
        "mode": "voldim",
        "distribution": _CUBE2,
        "x_grid": {"target_size": 16},
        "voldim": {"sources": ["oracle"], "j_min": 2, "j_max": 6},
    },
    "cube2_sample": _golden_rate("rate_in_h", _CUBE2, _GAUSS2, n_list=[500], export_sample_csv=True),
    # the fit subcommand needs at least 4 bandwidths
    "cube1_fit": _golden_rate(
        "rate_in_h", {"kind": "uniform_cube", "dim": 1}, {"form": "gaussian", "dim": 1}, h_grid={"l_n": 0.05, "h_max": 0.4, "n_points": 5}
    ),
}

# sha256 of every artifact each config leaves, fit outputs included (numpy
# 2.4.6, scipy 1.17.1); a refactor of the oracles or of the artifact writers
# must keep every byte.
_GOLDEN_SHA256 = {
    "ball": {
        "replicates.csv": "64d09b48b87df21ab8913f14a52f38f3374d3610b72d32445b49151145da20b8",
        "report.json": "213757b704902686c1c808ed2ce1b3eaf76be29a13aef57c05903cf72e6dbebb",
        "summary.csv": "cef008439a24267e69ccd6189437b7509adf25d22f9756bdb424383ab8bd66b7",
    },
    "ball_s01": {
        "replicates.csv": "21abd04ab452727dace5ed4b730b894980d6db947a9d1eddba33fcc58711f60f",
        "report.json": "f19144476d871b365a42e06dfa628a640e643437288cdb1b8dee2d2378194565",
        "summary.csv": "2798137b0762ed2e41c4a06cf7a0f6911b3237edf9d95c9c77cc478244c0792b",
    },
    "bounds_sigma2": {
        "bounds.json": "5cbfa4892caf49d25bfb1ad7cb2a88ff2deaa5c7a3fcfdf74f8f7a9056f9c0eb",
    },
    "circle": {
        "replicates.csv": "a51eecb69ea1c345c8795d7ecd6743b7db589c7e91bd5cf64aa1b6db3d75d989",
        "report.json": "97a35637b3b19027daf9c01ea57c880d9897adc294dfe928c4c884fe26c61811",
        "summary.csv": "7a090f915a9d9a66c1d5130f68b7c71381f04fcbc1e8ce6feea11b74ca7d6bdd",
    },
    "covering": {
        "covering.csv": "ffdd2e77c8ec7fe798d54d44da47dc28fb49165b43d4f05115d39297e5d4f97f",
        "covering.json": "a5eba4bf9627bdb966618cd089cfcee0b96e49e5024ec42ae5a569a607c527ae",
    },
    "cube1_fit": {
        "fit_h.json": "69f09f64c56bb8a4537a7f7cfaf7a5b6e81e154146f92f4f527da6669383158b",
        "plot_h.csv": "d9f25ab805f65e103d8ce9bf97183b46c52dc34eadc7c12cc50a68752bd39164",
        "plot_h.svg": "882408d6332daa5a39ba04e5c06254ea31a9f919f2a381feaaf3c263bd6ffe66",
        "replicates.csv": "16d8230d0ae7b4828c20ae845470365a73756eba1dcc4e5a407e4ab9606412c7",
        "report.json": "a36fbaf46f0e5fe7612acf2fcd79830b9058065d561fbef818fa32f00742212c",
        "summary.csv": "f6e417ecb94b1558af572d08cbd67c1277e910a79d93cd00470ebf88ed9f7b8c",
    },
    "cube1_s1": {
        "replicates.csv": "fe17ea2bb6001a3930d32b32653a7cea9b13353f8b7d004e70693063db0cd1f3",
        "report.json": "af89bfd9e231cee7d7431d77e922509c1a8f3d0186bd940ea42d165767f0a2c9",
        "summary.csv": "32a49a2a41cc6354aa0745705cdde7a989ede68433bcedca5dee40e676e33262",
    },
    "cube2": {
        "replicates.csv": "1fc082a251082fe50b5dd5fa35f38efcbde9b7f6c8010859b39b43541550f03a",
        "report.json": "862c645cfa8fd2d9cc35ee9d1d964e613320b7e859c23617902a467f9f6e3031",
        "summary.csv": "b06487c7b2d7a5826e152fc6a364555049f06972de99867875ddf17b453add96",
    },
    "cube2_sample": {
        "replicates.csv": "980fc78f6a8a86ec65ac20220856a2099e92bb04be5120aa1d56c30af66bbc9a",
        "report.json": "a45625c1f88fbfc256299c938c1c53564e0cbda7ace396cf5ef7c368895a7efb",
        "sample.csv": "c48f1f5dbf2a35da8b4fd3c84c589f2c134625529e424679323ef49fe2fd3a8a",
        "summary.csv": "d50db14ec6f34f661040cf5c70b8e7269c9aa4b6136e70a7f21cf1620d63e7e1",
    },
    "mixture": {
        "replicates.csv": "2956e1370e099c67a69eb2cca57105e114acda812a5d9ab86227b8037e7661af",
        "report.json": "56fd9c644821afe9d81cd8ae825fd908ffa4f2bb2a309cecdd0024e2c0c4aad8",
        "summary.csv": "75d5745776bdfcef091f2ca8c2576f753b860d321cd6edc2d36107d026722528",
    },
    "moments_epan_ball1": {
        "moments.csv": "a70ae076dc1ab4260b65da04bcc537e0063a2222229f52fdade74d32b2091aa2",
        "moments.json": "56a0c32f36dea34c9791530ed8895cf9d4ed6286277db751507ce61f33b0d1c6",
    },
    "moments_epan_cube1": {
        "moments.csv": "34e5c79ebe0c730764af31161ae9a10c3dbd8e87f18776e9b71d224f301ca014",
        "moments.json": "1a3d3ce8a3bdaa263881855c5b0f7c0900d8f82d03268ebe11273dd14110a342",
    },
    "moments_epan_sphere2": {
        "moments.csv": "f71d62b9714efa976c01f4d5665db4c9696dcde716d4c302bb6ea9e6a171cabf",
        "moments.json": "78c5cc929bf692730c3b9c9016a2b16002899fae464fbafc23b6c241c6947582",
    },
    "moments_gauss_circle": {
        "moments.csv": "3e16d1ed623687cb317cce9e3c93700f46d3478568abf2974a7f00e22e8e04f8",
        "moments.json": "3f2dbb739202da8d4f7c66f4aa9497d2c5b80a81bd1e7d38120d02ecdb116685",
    },
    "moments_gauss_circle_s10": {
        "moments.csv": "5f511feb28bae93c1b038ee9193dde700e9394fcb5291aa52209b75cc2d13be8",
        "moments.json": "7ac55f1be033aa5a61794fe162b92ca3c4d940a3f158566115f2ef331a60281c",
    },
    "moments_gauss_cube2_s10": {
        "moments.csv": "a39a89cd9eed261d9a864f635c5c65cd4089593b43af877e001b7855e76897cd",
        "moments.json": "9d66203c143fd91b4263277f5b85c829cf962d05045220fccb8b4310f1d7aa95",
    },
    "moments_gauss_mixture": {
        "moments.csv": "171368cddf88152a3b1c0b71fbf510548f7005ca33cf7b8a66f3c480fbeb7c91",
        "moments.json": "4d605995543eefa38a65b8417423a6c19c4081715d5e5e7400d48a8bee9f54b2",
    },
    "moments_point_masses_s10": {
        "moments.csv": "35a2eef754f7dd1dc476334bc5517946f2db513037fabeff819c74353c5e5aa0",
        "moments.json": "87b4198fdedaa7530a98d435f5707427f1326cb683da6dceac10a0127a3aa638",
    },
    "point_masses": {
        "replicates.csv": "3e2fdb585bed9bd947a8af62d65b458297598df753003fa606460d8faec0621d",
        "report.json": "fdd21dcce1742a58e93fb101ed26965a02f85b5225d4e62b96d0493c88c6dd04",
        "summary.csv": "cb974d746a363d0e93b60af1ab187d7f0c0469292727f2e4cff6c1b1477bab9b",
    },
    "sphere2": {
        "replicates.csv": "923dcbbf794c693b4f4b13713b3a78042aa0c1d3f389843a769b871dc7ef9512",
        "report.json": "3dc29dbb23ded5051ac3124c341d385ea235b9b5f057064e5fb0f2f494707698",
        "summary.csv": "6bbd031277e67bbeb2e707289e8585bfff40c38bab050e653ae9ddb61cd14fc5",
    },
    "voldim_both": {
        "sweep_empirical.csv": "485019e0efe695e08f74d7019c9a381588686a19e65f7aae7492b45dbb27069d",
        "sweep_oracle.csv": "0385b33b5753c6cd53334e5d02808a77898f4f3d8d9e38016a7e285d038ed787",
        "voldim.json": "a60b3b40b310e4beaecf6b68120215846724853b95ebbce06a302abf01f2bba4",
    },
    "voldim_oracle": {
        "sweep_oracle.csv": "74bb9407a5904cd17338827f3c39459d0b2a7d9f913295992fff415633049516",
        "voldim.json": "be1065d3f60d70ac8b220f0ee222a4d0e06a16e40bf707392b9db626506532fa",
    },
    "voldim_oracle_cube2": {
        "sweep_oracle.csv": "2056d04a1d23add0eaf71c5489718e647bddc22939e76a1935b3ea99108e75d8",
        "voldim.json": "9dc8b60498086af347f82c5c49a39f39da29597312a5af6b2a70ed56a587ad01",
    },
}


# validates the configs on stdin in a fresh interpreter, lists the lazily
# loaded modules already present, then computes one ball oracle cell and one
# empirical voldim sweep, printed as hex
_IMPORT_PROBE = """
import json, sys
import numpy as np
import kderates
from kderates.harness import ExperimentConfig
for cfg in json.load(sys.stdin):
    ExperimentConfig.from_dict(cfg)
print(json.dumps([m for m in {lazy!r} if m in sys.modules]))
ball = kderates.UnboundedBall(2, 1.0)
cell = ball.smoothed_density(kderates.Kernel.gaussian(2), 0.2, np.array([0.3, 0.4]))
sweep = kderates.voldim_sweep(ball.sample(2000, 3), ball.special_points(), [0.05, 0.1, 0.2])
print(json.dumps([cell.hex(), *(float(p).hex() for p in sweep.sup_probs)]))
"""
_LAZY_MODULES = ["scipy.integrate", "scipy.special", "scipy.spatial", "scipy.optimize", "scipy.sparse", "yaml"]


def test_import_and_validation_load_no_scipy_submodule_or_yaml():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(lazy=_LAZY_MODULES)],
        input=json.dumps(list(_GOLDEN_CONFIGS.values())),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert proc.returncode == 0, proc.stderr
    loaded, values = (json.loads(line) for line in proc.stdout.splitlines())
    assert loaded == []
    ball = kderates.UnboundedBall(2, 1.0)
    sweep = kderates.voldim_sweep(ball.sample(2000, 3), ball.special_points(), [0.05, 0.1, 0.2])
    cell = ball.smoothed_density(Kernel.gaussian(2), 0.2, np.array([0.3, 0.4]))
    assert values == [cell.hex(), *(float(p).hex() for p in sweep.sup_probs)]


def test_modes_table_covers_golden_and_cli():
    assert {cfg["mode"] for cfg in _GOLDEN_CONFIGS.values()} == set(MODES)
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    assert set(subcommands) - {"fit"} == {m.command for m in MODES.values()}


# every config under 1 worker, and each campaign (a pool run) under 2 as well
_GOLDEN_RUNS = [pytest.param(name, "1", id=name) for name in sorted(_GOLDEN_CONFIGS)] + [
    pytest.param(name, "2", id=f"{name}-workers2")
    for name in sorted(_GOLDEN_CONFIGS)
    if MODES[_GOLDEN_CONFIGS[name]["mode"]].command == "simulate"
]


@pytest.mark.parametrize("name, workers", _GOLDEN_RUNS)
def test_golden_artifacts(name, workers, tmp_path, monkeypatch):
    import hashlib

    monkeypatch.setenv("KDERATES_WORKERS", workers)
    out = tmp_path / "out"
    run(ExperimentConfig.from_dict(_GOLDEN_CONFIGS[name]), out)
    if "fit_h.json" in _GOLDEN_SHA256[name]:
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(_GOLDEN_CONFIGS[name]))
        assert cli_main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(_GOLDEN_SHA256[name])
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in _GOLDEN_SHA256[name]}
    assert got == _GOLDEN_SHA256[name]
