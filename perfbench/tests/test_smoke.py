"""Smoke tests of the benchmark at a tiny size.

    python3 -m unittest discover -s perfbench/tests

Each workload runs once untraced and once traced through perfbench/run.py
(which builds cutbench on first use), plus one run on the held-out seed.
The workloads are those of BENCHMARK.json plus wide_cold, which is defined
and run here but not gated (see perfbench/README.md).
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run as bench  # noqa: E402  (perfbench/run.py)

# Far below any workload's floors, so every run uses its minimum job count.
TINY_SECONDS = 0.01

# Workloads cutbench defines beyond those BENCHMARK.json gates.
UNGATED_WORKLOADS = ["wide_cold"]


def run_bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, bench.check_result(lines[-1], trace)


def input_digest(lines):
    return next(line.split()[-1] for line in lines if line.startswith("# inputs "))


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]] + UNGATED_WORKLOADS
        cls.runs = {(w, trace): run_bench(w, bench.DEFAULT_SEED, trace)
                    for w in cls.workloads for trace in (0, 1)}

    def test_every_end_to_end_metric_printed_once_with_its_unit(self):
        for workload in self.workloads:
            lines, result = self.runs[(workload, 0)]
            self.assertTrue(result["correct"], workload)
            for metric in self.spec["end_to_end"]:
                name, unit = metric["name"], metric["unit"]
                self.assertEqual(result["metrics"][name]["unit"], unit)
                printed = [line for line in lines[:-1] if line.split()[:1] == [name]]
                self.assertEqual(len(printed), 1, f"{workload}: {name} printed {len(printed)}x")
                self.assertEqual(printed[0].split()[-1], unit)

    def test_layer_self_times_add_up_to_the_measured_job_time(self):
        for workload in self.workloads:
            _, result = self.runs[(workload, 1)]
            self.assertTrue(result["correct"], workload)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            layers = sum(value for name, value in metrics.items()
                         if name.endswith(".ms_per_job") and name != "service.overhead_ms_per_job")
            job_ms = metrics["service.solo_latency_ms"]
            total = layers + metrics["service.overhead_ms_per_job"]
            self.assertLessEqual(abs(total - job_ms), 0.01 * job_ms, workload)

    def test_workloads_isolate_what_they_claim(self):
        def layer(workload, name):
            return self.runs[(workload, 1)][1]["metrics"][name]["value"]

        for workload in self.workloads:
            self.assertGreaterEqual(layer(workload, "trace.attributed_frac"), 0.9, workload)
        replayed = {w: sum(layer(w, m["name"]) for m in self.spec["per_layer"]
                           if m["name"].endswith(".ms_per_job")
                           and m["name"] != "service.overhead_ms_per_job")
                    for w in self.workloads}
        apply_share = {w: layer(w, "sim.apply.ms_per_job") / replayed[w] for w in self.workloads}
        self.assertGreaterEqual(apply_share["wide_cold"], 0.5)
        self.assertLessEqual(apply_share["paper_mixed"], 0.05)
        self.assertLessEqual(apply_share["sweep_warm"], 0.05)
        self.assertGreaterEqual(layer("sweep_warm", "service.cache.hit_frac"), 0.99)
        self.assertLessEqual(layer("paper_mixed", "service.cache.hit_frac"), 0.01)
        self.assertLessEqual(layer("wide_cold", "service.cache.hit_frac"), 0.01)
        for workload in ("wide_cold", "sweep_warm"):
            self.assertLessEqual(layer(workload, "cutting.plan.ms_per_job"),
                                 0.05 * replayed[workload], workload)

    def test_seed_changes_inputs_but_not_metric_names(self):
        workload = "paper_mixed"
        default_lines, default = self.runs[(workload, 0)]
        traced_lines, _ = self.runs[(workload, 1)]
        held_lines, held_out = run_bench(workload, bench.HELD_OUT_SEED, 0)
        self.assertEqual(input_digest(default_lines), input_digest(traced_lines))
        self.assertNotEqual(input_digest(default_lines), input_digest(held_lines))
        self.assertEqual(set(default["metrics"]), set(held_out["metrics"]))
        self.assertTrue(held_out["correct"])


if __name__ == "__main__":
    unittest.main()
