# cli.py
# Command-line entry point.  The subcommands are the ones harness.MODES
# names, plus fit; every one takes --config PATH and --out DIR, and every
# one but fit takes --seed N, which replaces the config's base_seed and is
# validated with it.  Each subcommand writes the files its harness function
# returns.  Exit code 0 on success, 2 on failure with a machine-readable JSON
# error summary on stderr.  simulate exits 1 when replicates failed (they are
# listed in the report's failures) unless --allow-failures is given.

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifacts import dumps_17g, write_files
from .harness import MODES, DeviationReport, ExperimentConfig, fit_files, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kderates", description="KDE sup-deviation and dimension experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*dict.fromkeys(m.command for m in MODES.values()), "fit"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        if name == "fit":
            p.add_argument("--report", default=None, help="report.json path (default: <out>/report.json)")
            p.add_argument("--axis", default=None, choices=["h", "n"], help="fit axis (default: inferred)")
            p.add_argument("--statistic", default=None, choices=["mean", "median"])
        else:
            p.add_argument("--seed", type=int, default=None, help="override base_seed")
        if name == "simulate":
            p.add_argument("--allow-failures", action="store_true", help="exit 0 even when replicates failed")
    return parser


def _load_config(args) -> tuple[ExperimentConfig, Path]:
    config = ExperimentConfig.from_yaml(args.config)
    out_dir = Path(args.out) if args.out else Path(config.raw.get("out_dir", "out"))
    return config, out_dir


def _cmd_fit(args) -> int:
    _, out_dir = _load_config(args)
    report = DeviationReport.load(Path(args.report) if args.report else out_dir / "report.json")
    axis = args.axis or ("h" if len({c.h for c in report.cells}) > 1 else "n")
    fit, files = fit_files(report, axis, args.statistic)
    write_files(out_dir, files)
    print(f"fit axis={axis} slope={fit.slope:.6g} residual={fit.residual:.3g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        config, out_dir = _load_config(args)
        if args.seed is not None:
            config = ExperimentConfig.from_dict({**config.raw, "base_seed": args.seed})
        expected = MODES[config.mode].command
        if args.command != expected:
            raise ValueError(f"config mode {config.mode!r} not valid for '{args.command}' (run it with '{expected}')")
        report = run(config, out_dir)
        failures = getattr(report, "failures", None)
        print(f"{args.command}: wrote artifacts to {out_dir}")
        if failures:
            print(f"{len(failures)} replicate failure(s) recorded in the report", file=sys.stderr)
            if not args.allow_failures:
                return 1
        return 0
    except Exception as exc:
        summary = {"error": str(exc), "type": type(exc).__name__, "command": args.command}
        print(dumps_17g(summary), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
