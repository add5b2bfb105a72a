#!/usr/bin/env python3
"""kderates benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``kderates`` from its
``src/`` directory.  The workloads (see ``workloads.py``) run closed loop:
one main process starts each campaign when the previous one ends, and runs
whole cycles of the workload's campaigns until ``--seconds`` have passed
(at least one cycle).  ``KDERATES_WORKERS`` is set to the number of usable
cores and BLAS/OpenMP pools are pinned to one thread, in this process and in
the pool workers it forks.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each campaign once untraced, then replays it serially with one span per
layer call, checks that the replay reproduces the untraced outputs bit for
bit, and prints the per-layer metrics.  Outputs are checked outside the
timed region in both modes.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

PROBE = """\
import json, sys, time
t = time.perf_counter()
import kderates
from kderates.harness import ExperimentConfig
for cfg in json.load(sys.stdin):
    ExperimentConfig.from_dict(cfg)
print(time.perf_counter() - t)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: the reference seed)")
    p.add_argument("--seconds", type=float, default=10.0, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's input sizes")
    p.add_argument("--reference-dir", type=Path, default=HERE / "reference")
    return p.parse_args(argv)


def setup_time(configs: list, env: dict) -> float:
    """Median time, in fresh interpreters, to import kderates and validate the configs."""
    times = []
    for _ in range(SETUP_REPEATS):
        p = subprocess.run(
            [sys.executable, "-c", PROBE], input=json.dumps(configs), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=120, check=True,
        )
        times.append(float(p.stdout.split()[-1]))
    return statistics.median(times)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return p.stdout.strip() or None


def inputs_digest(campaigns) -> str:
    h = hashlib.sha256()
    for c in campaigns:
        h.update(c.name.encode())
        h.update(json.dumps(getattr(c, "cfg", None), sort_keys=True).encode())
        h.update(repr(getattr(c, "spot", None)).encode())
        if hasattr(c, "sample"):
            h.update(c.sample.tobytes())
    return h.hexdigest()


def count_shipped_tasks(harness) -> dict:
    """Give harness.run a process pool that counts the tasks it ships and their pickled bytes."""
    shipped = {"tasks": 0, "bytes": 0}

    class CountingPool(harness.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            shipped["tasks"] += 1
            shipped["bytes"] += len(pickle.dumps((fn, args, kwargs)))
            return super().submit(fn, *args, **kwargs)

    harness.ProcessPoolExecutor = CountingPool
    return shipped


def execute(c, out: Path):
    """One untraced execution: (wall seconds, result or None, digest or None)."""
    t0 = time.perf_counter()
    try:
        result = c.run(out)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, None, None
    wall = time.perf_counter() - t0
    return wall, result, c.digest(result, out)


def check_outputs(campaigns, records, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every execution; failed checks count as failed operations."""
    messages: list[str] = []
    last = {}
    for c, _, result, digest, out in records:
        last[c.name] = (result, digest, out)
    verdict = {}
    for c in campaigns:
        result, _, out = last[c.name]
        if result is None:
            continue
        try:
            bad = c.check(result, out, reference.get(c.name) if reference else None)
        except Exception as exc:
            traceback.print_exc()
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        verdict[c.name] = bad
        messages += [f"{c.name}: {m}" for m in bad]
    attempted = failed = 0
    for c, _, result, digest, _ in records:
        attempted += c.ops
        if result is None:
            failed += c.ops
            messages.append(f"{c.name}: raised")
            continue
        n_bad = c.failed_replicates(result) + len(verdict[c.name]) + (digest != last[c.name][1])
        if digest != last[c.name][1]:
            messages.append(f"{c.name}: repeated executions differ")
        failed += min(c.ops, n_bad)
    return attempted, failed, messages


def load_reference(path: Path, seed: int, default_seed: int):
    """Reference outputs by campaign, recorded for the default seed only."""
    if seed != default_seed or not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data["seed"] != seed:
        raise ValueError(f"{path} holds outputs for seed {data['seed']}, not {seed}")
    return {name: {**values, "rtol": data["rtol"]} for name, values in data["campaigns"].items()}


def peak_rss_kb() -> int:
    """Highest resident set of this process and of any child it has waited for (pool workers)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def end_to_end(campaigns, records, setup_s, rss_kb, attempted, failed) -> dict:
    walls: dict[str, list[float]] = {}
    for c, wall, *_ in records:
        walls.setdefault(c.name, []).append(wall)
    return {
        "wall_s": sum(statistics.median(walls[c.name]) for c in campaigns),
        "work_per_s": sum(c.work for c, *_ in records) / sum(w for _, w, *_ in records),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(records, replays, tr, shipped, pool_tasks, nproc, workers) -> dict:
    st = tr.self_times()
    layers = tr.layer_self_times()
    serial = tr.root_time()
    run_wall = sum(w for _, w, *_ in records)
    replay_wall = sum(replays.values())
    kde_s = st.get("kde.radial", 0.0) + st.get("kde.hermite", 0.0)
    pairs = tr.count("kde.radial", "pairs") + tr.count("kde.hermite", "pairs")
    ratios = [r for c, _, res, *_ in records if res is not None for r in c.cert_ratios(res)]
    tasks = shipped["tasks"]
    dispatch = 0.0
    for c, wall, *_ in records:
        busy = min(workers, pool_tasks[c.name]) or 1
        dispatch += wall - replays[c.name] / busy
    m = {
        "kde.radial_s": st.get("kde.radial", 0.0),
        "kde.hermite_s": st.get("kde.hermite", 0.0),
        "kde.pairs": pairs,
        "kde.pairs_per_s": pairs / kde_s if kde_s else 0.0,
        "kde.bytes_computed": max(tr.largest("kde.radial", "peak_bytes"), tr.largest("kde.hermite", "peak_bytes")),
        "kde.cert_ratio": statistics.median(ratios) if ratios else 0.0,
        "distributions.sample_s": st.get("distributions.sample", 0.0),
        "distributions.sample_points": tr.count("distributions.sample", "points"),
        "distributions.oracle_table_s": st.get("distributions.oracle_table", 0.0),
        "distributions.oracle_table_cells": tr.count("distributions.oracle_table", "cells"),
        "distributions.moment_k_s": st.get("distributions.moment_k", 0.0),
        "distributions.moment_k_calls": tr.count("distributions.moment_k", "calls"),
        "distributions.ball_prob_s": st.get("distributions.ball_prob", 0.0),
        "distributions.ball_prob_calls": tr.count("distributions.ball_prob", "calls"),
        "dimension.counts_s": st.get("dimension.counts", 0.0),
        "dimension.count_queries": tr.count("dimension.counts", "queries"),
        "dimension.correlation_s": st.get("dimension.correlation", 0.0),
        "dimension.correlation_pairs": tr.count("dimension.correlation", "pairs"),
        "dimension.box_s": st.get("dimension.box", 0.0),
        "dimension.box_covers": tr.count("dimension.box", "covers"),
        "dimension.fit_s": st.get("dimension.fit", 0.0),
        "harness.tasks": tasks,
        "harness.task_bytes": shipped["bytes"] / tasks if tasks else 0.0,
        "harness.dispatch_s": dispatch,
        "harness.parallel_eff": serial / (nproc * run_wall),
        "harness.write_s": st.get("harness.write", 0.0),
        "harness.write_bytes": tr.count("harness.write", "bytes"),
        "harness.failed_replicates": sum(c.failed_replicates(res) for c, _, res, *_ in records if res is not None),
        "trace.serial_s": serial,
        "trace.overhead_s": replay_wall - run_wall,
        "trace.bookkeeping_s": tr.bookkeeping_s,
    }
    for layer in ("kde", "distributions", "dimension", "harness"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
        m[f"{layer}.share"] = layers.get(layer, 0.0) / serial
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kderates" / "__init__.py").is_file():
        print(f"error: no kderates sources under {SRC}; run from a kderates checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # set before numpy loads: thread pools read these once, at library load
    for var in THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    workers = nproc
    os.environ["KDERATES_WORKERS"] = str(workers)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import kderates
    import kderates.harness
    if Path(kderates.__file__).resolve().parent != SRC / "kderates":
        print(f"error: imported kderates from {kderates.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import DEFAULT_SEED, SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    reference = load_reference(args.reference_dir / f"{args.workload}-{args.size}.json", seed, DEFAULT_SEED)

    campaigns = WORKLOADS[args.workload](seed, SIZES[args.size])
    run_dir = OUT / f"{args.workload}-{args.size}-seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_s = None
    if args.trace == 0:
        setup_s = setup_time([cfg for c in campaigns for cfg in c.configs], dict(os.environ))

    shipped = count_shipped_tasks(kderates.harness) if args.trace == 1 else None
    pool_tasks = {}  # tasks each campaign shipped to the pool, counted in traced runs

    # -- timed region: closed loop over the campaigns --------------------------------
    records = []
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or (args.trace == 0 and time.perf_counter() - start < args.seconds):
        for c in campaigns:
            out = run_dir / "run" / c.name
            before = shipped["tasks"] if shipped is not None else 0
            records.append((c, *execute(c, out), out))
            if shipped is not None:
                pool_tasks[c.name] = shipped["tasks"] - before
        cycles += 1
        if cycles == 1:
            # one cycle from a fresh process; later cycles raise it only through heap reuse
            rss_kb = peak_rss_kb()
    # -- end of timed region -----------------------------------------------------------

    replays = {}
    tr = Tracer()
    replay_bad = []
    if args.trace == 1:
        for c in campaigns:
            out = run_dir / "replay" / c.name
            out.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            try:
                result = c.replay(tr, out)
                same = c.digest(result, out) == next(r[3] for r in records if r[0] is c)
            except Exception:
                traceback.print_exc()
                same = False
            replays[c.name] = time.perf_counter() - t0
            if not same:
                replay_bad.append(f"{c.name}: serial replay differs from harness.run")
        tr.dump(run_dir / "spans.json")

    attempted, failed, messages = check_outputs(campaigns, records, reference)
    failed = min(attempted, failed + len(replay_bad))
    messages += replay_bad
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace == 0:
        values = end_to_end(campaigns, records, setup_s, rss_kb, attempted, failed)
        declared = spec["end_to_end"]
    else:
        values = per_layer(records, replays, tr, shipped, pool_tasks, nproc, workers)
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    provenance = {
        "workload": args.workload, "seed": seed, "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": inputs_digest(campaigns), "cycles": cycles,
        "campaign_wall_s": {c.name: statistics.median(w for d, w, *_ in records if d is c) for c in campaigns},
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": nproc, "KDERATES_WORKERS": os.environ["KDERATES_WORKERS"],
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "commit": git_commit(),
    }
    (run_dir / "provenance.json").write_text(json.dumps(provenance, indent=1) + "\n")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']!r:>24} {m['unit']}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": not messages, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
