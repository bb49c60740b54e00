#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (and the simulator's libraries) under .bench_build/perfbench;
later calls rebuild incrementally. Spill shards, Chrome trace files and one
result record per run land in .bench_build/perfbench-out.

The last line of standard output is the result object; it is checked
against BENCHMARK.json (every declared metric of the run's kind, with its
unit, and nothing else) before it is printed.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Run a build step with its output on stderr (stdout is the result)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(target):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT} (src/ and CMakeLists.txt are required)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), *generator,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs])
    return BUILD_DIR / target


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not NAME_RE.match(metric["name"]) or not UNIT_RE.match(metric["unit"]):
                fail(f"BENCHMARK.json: bad metric name or unit: {metric}")
    return spec


def check_result(line, spec, trace):
    """Return the parsed result line, or an error message."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return None, f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result must have exactly correct, attempted, failed and metrics"
    if not isinstance(result["correct"], bool):
        return None, "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            return None, f"{key} must be a non-negative integer"
    if result["attempted"] < 1:
        return None, "attempted must be at least 1"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        return None, f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            return None, f"metric {name} must be {{value, unit: {declared[name]}}}"
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return None, f"metric {name} has a non-finite or non-numeric value"
    return result, None


def self_test():
    load_spec()
    binary = build("perfbench_selftest")
    return subprocess.run([str(binary)], cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None or args.seed is None or args.seed < 0:
        fail("--workload and a non-negative --seed are required")

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    _, error = check_result(lines[-1], spec, args.trace == 1)
    if error:
        fail(error)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
