import json
import math
import multiprocessing
import os
import subprocess
import sys
import xml.etree.ElementTree as etree
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import yaml

from kderates.harness import MODES, DeviationReport, ExperimentConfig, dumps_17g, emit_plots, fit_rate, run
from kderates.cli import _build_parser, main as cli_main
from kderates.distributions import UniformCircle, UniformCube, distribution_from_config
from kderates.kernels import kernel_from_config


def small_rate_config(mode="rate_in_h", **overrides):
    cfg = {
        "mode": mode,
        "distribution": {"kind": "uniform_cube", "dim": 1},
        "kernel": {"form": "gaussian", "dim": 1},
        "n_list": [2000],
        "h_grid": {"l_n": 0.1, "h_max": 0.4, "n_points": 5},
        "x_grid": {"target_size": 21},
        "replicates": 4,
        "base_seed": 77,
        "statistic": "median",
    }
    cfg.update(overrides)
    return ExperimentConfig.from_dict(cfg)


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
        files = emit_plots(report, tmp_path / "plots")
        csv = tmp_path / "plots" / "plot_h.csv"
        assert csv in files
        header = csv.read_text().splitlines()[0]
        assert header == "log_h,log_sup_mean,log_sup_median,fit_value"
        svg = tmp_path / "plots" / "plot_h.svg"
        tree = etree.parse(svg)  # well-formed XML
        assert tree.getroot().tag.endswith("svg")

    def test_refuses_empty_axis(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDERATES_WORKERS", "1")
        cfg = small_rate_config(h_grid={"l_n": 0.2, "h_max": 0.2, "n_points": 1})
        report = run(cfg, tmp_path)
        with pytest.raises(ValueError, match="axis"):
            emit_plots(report, tmp_path / "plots")


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
            env={**__import__("os").environ, "KDERATES_WORKERS": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.csv").exists()


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
        "replicates.csv": "302d104dfdbb5e0b039babd92731bc8e5d1c022224e37261904a8c17b175e4cb",
        "report.json": "c4acca5e65f31e6eda177c8f6e82500ace857c00b6375a3e701088972cd27e3d",
        "summary.csv": "b696b4f3223eec6980aa0557d5a6cc1653e83824c64206481d15dbcce94bfb84",
    },
    "bounds_sigma2": {
        "bounds.json": "d1e42f65103613f3932cbcba6f7aa08fdf35020d889ef7903541764c130fab3e",
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
        "replicates.csv": "1a4cd48d715ac38ced8813f2f5cb59d4ac8ebb985563fa85c6fee5fc26e397c1",
        "report.json": "9fc7b3067a4a387855c267aaf9239f08497240302fedba1b15e8f02bfa967088",
        "summary.csv": "442806e93ed1d02f8706b7668e0797806f19f5ea82d698da00289814fba7c0b6",
    },
    "cube2": {
        "replicates.csv": "03450f79c4a789a48188d6567080d161807778ad9c5e9629587510d8b060c945",
        "report.json": "0aa72c505019feb22834eda2308f6c2bb2d4ac65dc03593695f21b325b90bd03",
        "summary.csv": "d1e47d2c8d2a47f1a3e6b377cc89d519ffb6df94d3d678b3ee60ba43338fb3d7",
    },
    "cube2_sample": {
        "replicates.csv": "c0f1d2906884995cc978164b663fa3f1574a1815148341be238b49eca73dedef",
        "report.json": "c61088cba53d6338ab3b260187d591fc1f3a7ac6eb301200c95ae446bd2d114b",
        "sample.csv": "c48f1f5dbf2a35da8b4fd3c84c589f2c134625529e424679323ef49fe2fd3a8a",
        "summary.csv": "ee1aeb25710142809bc2bb37ea532e7d7047fcd148ece2742f7b1bd3c808b0ae",
    },
    "mixture": {
        "replicates.csv": "8d9c7dbddf24c8aaebeb0fa1f5be783d3d454c4283f231cb6653cf07c98cc68d",
        "report.json": "7a18aecc807353bf3fe984eac20cc22a6c5b5035e12e92a086367e4e6ce608bb",
        "summary.csv": "cdb3af8b3463aa6d3164da0f00c5afd917ac7cf4e85f6a19afd7fdf3ab7b25ac",
    },
    "moments_epan_cube1": {
        "moments.csv": "34e5c79ebe0c730764af31161ae9a10c3dbd8e87f18776e9b71d224f301ca014",
        "moments.json": "1a3d3ce8a3bdaa263881855c5b0f7c0900d8f82d03268ebe11273dd14110a342",
    },
    "point_masses": {
        "replicates.csv": "3e2fdb585bed9bd947a8af62d65b458297598df753003fa606460d8faec0621d",
        "report.json": "fdd21dcce1742a58e93fb101ed26965a02f85b5225d4e62b96d0493c88c6dd04",
        "summary.csv": "cb974d746a363d0e93b60af1ab187d7f0c0469292727f2e4cff6c1b1477bab9b",
    },
    "sphere2": {
        "replicates.csv": "129939c79d0b05cb97d1e4504073c33b0fdbc215f54e073f0dcac6d69d5c40e0",
        "report.json": "c1126657aca84a8bc5ca3376edcb02c1d16269a24c650c5bc027681b42a0e697",
        "summary.csv": "8e7cc0c3ba38ce567d34ca9e3cc62a7e1906f4f3098b4f7cca1d1d277b3849e5",
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
}


def test_modes_table_covers_golden_and_cli():
    assert {cfg["mode"] for cfg in _GOLDEN_CONFIGS.values()} == set(MODES)
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    assert set(subcommands) - {"fit"} == {m.command for m in MODES.values()}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_golden_artifacts(name, tmp_path, monkeypatch):
    import hashlib

    monkeypatch.setenv("KDERATES_WORKERS", "1")
    out = tmp_path / "out"
    run(ExperimentConfig.from_dict(_GOLDEN_CONFIGS[name]), out)
    if "fit_h.json" in _GOLDEN_SHA256[name]:
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(_GOLDEN_CONFIGS[name]))
        assert cli_main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(_GOLDEN_SHA256[name])
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in _GOLDEN_SHA256[name]}
    assert got == _GOLDEN_SHA256[name]
