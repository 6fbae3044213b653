#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/src, binary `cutbench`).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the qcut
library and cutbench in $CARGO_TARGET_DIR (default .bench_build) with
CMake; later runs rebuild incrementally. Build output goes to stderr.

stdout carries cutbench's report; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"} whose metric names and units
are checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1). Run records and span files land in .bench_out/.

Seeds: DEFAULT_SEED is the seed a change is developed against;
HELD_OUT_SEED is kept back to confirm a claimed gain on inputs the change
was not tuned on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 20231

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build():
    """Configures (once) and builds cutbench; returns the binary's path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure, BUILD_TIMEOUT_S):
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed (are the qcut sources next to perfbench/?)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", build_dir, "--target", "cutbench", "-j", jobs],
                      BUILD_TIMEOUT_S):
        fail("build failed")
    return os.path.join(build_dir, "cutbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key in result line")
    return dict(pairs)


def check_result(line, trace):
    """Parses cutbench's last line; raises ValueError when it is malformed."""
    result = json.loads(line, object_pairs_hook=unique_keys)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are " + ", ".join(sorted(result)))
    counts = (result["attempted"], result["failed"])
    if not isinstance(result["correct"], bool) or not all(isinstance(c, int) for c in counts) \
            or result["attempted"] < 1:
        raise ValueError("bad correct/attempted/failed fields")
    expected = expected_metrics(trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        raise ValueError(f"metric names/units differ from BENCHMARK.json "
                         f"(missing {missing}, unexpected {extra})")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"cutbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"cutbench exited with code {proc.returncode}")
    try:
        check_result(lines[-1], args.trace)
    except ValueError as e:
        fail(f"malformed result line: {e}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
