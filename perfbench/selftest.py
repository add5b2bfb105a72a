#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs ``run.py --size tiny`` on every workload and checks that

* every metric BENCHMARK.json names is printed, with its unit, in both the
  untraced and the traced run, and the outputs pass their checks;
* a changed seed changes the inputs but not the metric names;
* a deliberately corrupted reference value is counted as a failed operation,
  and one failed operation moves ``ok_frac`` by more than its bound, also
  in a full-size run of ten cycles;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OK_BOUND = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "ok_frac")


def bench(*args, cwd=ROOT, check=True):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--size", "tiny", "--seconds", "0", *map(str, args)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if check and p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return p


def result(p) -> dict:
    return json.loads(p.stdout.strip().splitlines()[-1])


def provenance(p) -> dict:
    line = next(ln for ln in p.stdout.splitlines() if ln.startswith("provenance "))
    return json.loads(line[len("provenance "):])


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def test_metrics_printed():
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = result(bench("--workload", w, "--trace", trace))
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            numeric = all(isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
                          for v in res["metrics"].values())
            expect(set(res) == {"correct", "attempted", "failed", "metrics"} and got == want and numeric,
                   f"{w} trace {trace}: every {section} metric printed with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{w} trace {trace}: outputs pass their checks")


def test_seed_changes_inputs():
    for w in WORKLOADS:
        a, b = bench("--workload", w, "--seed", 1), bench("--workload", w, "--seed", 2)
        expect(provenance(a)["inputs_sha256"] != provenance(b)["inputs_sha256"], f"{w}: another seed gives other inputs")
        expect(result(a)["metrics"].keys() == result(b)["metrics"].keys(), f"{w}: the same metric names for every seed")


def test_corrupted_reference_counts():
    ref_dir = SCRATCH / "reference"
    shutil.rmtree(ref_dir, ignore_errors=True)
    shutil.copytree(HERE / "reference", ref_dir)
    for w in WORKLOADS:
        path = ref_dir / f"{w}-tiny.json"
        data = json.loads(path.read_text())
        values = next(iter(data["campaigns"].values()))
        key = next(iter(values))
        flat = values[key]
        while isinstance(flat, list) and isinstance(flat[0], list):
            flat = flat[0]
        if isinstance(flat, list):
            flat[0] *= 1.0 + 1e-6
        else:
            values[key] = flat * (1.0 + 1e-6)
        path.write_text(json.dumps(data))
        res = result(bench("--workload", w, "--reference-dir", ref_dir))
        ok_frac = res["metrics"]["ok_frac"]["value"]
        expect(not res["correct"] and res["failed"] >= 1 and 1.0 - ok_frac > OK_BOUND,
               f"{w}: a corrupted reference value counts as failed ({res['failed']} of {res['attempted']}) "
               f"and moves ok_frac by more than {OK_BOUND}")


def test_one_failure_exceeds_bound_at_full_size():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import DEFAULT_SEED, SIZES
    from workloads import WORKLOADS as BUILDERS

    for w in WORKLOADS:
        ops = sum(c.ops for c in BUILDERS[w](DEFAULT_SEED, SIZES["full"]))
        expect(1.0 / (10 * ops) > OK_BOUND,
               f"{w}: one failed operation in ten full-size cycles ({10 * ops} attempted) moves ok_frac by more than {OK_BOUND}")


def test_bare_directory_fails():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = bench("--workload", WORKLOADS[0], cwd=bare, check=False)
    expect(p.returncode != 0 and not p.stdout.strip(), "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    test_metrics_printed()
    test_seed_changes_inputs()
    test_corrupted_reference_counts()
    test_one_failure_exceeds_bound_at_full_size()
    test_bare_directory_fails()
