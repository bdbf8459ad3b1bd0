#!/usr/bin/env python3
"""Tests of the benchmark itself.

Runs every workload at tiny size, untraced and traced, and checks that
each named metric is printed with its unit and that the gate passes;
feeds the correctness gate deliberately broken run records; and checks
that perfbench/metrics.json annotates exactly the workloads and metrics
of BENCHMARK.json.

    python3 perfbench/test_perfbench.py
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as perfbench  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((BENCH_DIR / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def tiny_run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip().splitlines()


class TinyRuns(unittest.TestCase):
    def check_metrics(self, trace, section):
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        for wl in WORKLOADS:
            with self.subTest(workload=wl, trace=trace):
                lines = tiny_run(wl, trace)
                result = json.loads(lines[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], lines)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = result["metrics"]
                self.assertEqual(set(got), set(want))
                for name, unit in want.items():
                    self.assertEqual(got[name]["unit"], unit, name)
                    self.assertIsInstance(got[name]["value"], (int, float))
                    # The readable panel names the metric with its unit.
                    self.assertTrue(any(
                        ln.split()[:1] == [name] and ln.endswith(" " + unit)
                        for ln in lines), name)
                self.assertTrue(any(ln.startswith("fingerprint budget: ")
                                    for ln in lines))

    def test_end_to_end_metrics(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_metrics(1, "per_layer")


def record(**over):
    r = {"kind": "budget", "phase": "warm", "error": "", "iterations": 4,
         "expected_iterations": 4, "need_target": False,
         "reached_target": False, "sync": True, "lossless": True,
         "weights_equal": True, "weights_finite": True, "laggards": 0,
         "max_lag": 0, "retx_keys": [],
         "fingerprint": {"iterations": 4, "total_sim_ns": 1000,
                         "extras": {"events_executed": 77}}}
    r.update(over)
    return r


class Gate(unittest.TestCase):
    def test_clean_runs_pass(self):
        self.assertEqual(perfbench.gate([record(), record()]), [[], []])

    def test_mismatched_fingerprint_trips(self):
        bad = record()
        bad["fingerprint"] = copy.deepcopy(bad["fingerprint"])
        bad["fingerprint"]["extras"]["events_executed"] = 78
        verdicts = perfbench.gate([record(), record(), bad])
        self.assertEqual([bool(v) for v in verdicts], [False, False, True])
        self.assertIn("extras.events_executed", verdicts[2][0])

    def test_fingerprints_compare_within_a_kind(self):
        target = record(kind="target", need_target=True, reached_target=True,
                        fingerprint={"iterations": 9})
        self.assertEqual(perfbench.gate([record(), target]), [[], []])

    def test_each_condition_trips(self):
        cases = {
            "error": record(error="stalled"),
            "short": record(iterations=3),
            "target": record(need_target=True, reached_target=False),
            "unequal": record(weights_equal=False),
            "nonfinite": record(weights_finite=False),
            "lossless laggard": record(laggards=1, max_lag=1),
            "deep lag": record(lossless=False, laggards=1, max_lag=2),
            "retx on lossless": record(retx_keys=["retx_segments"]),
        }
        for name, bad in cases.items():
            with self.subTest(case=name):
                self.assertEqual([bool(v) for v in
                                  perfbench.gate([record(), bad])],
                                 [False, True])

    def test_lossy_sync_may_end_one_round_apart(self):
        lossy = record(lossless=False, laggards=7, max_lag=1,
                       retx_keys=["retx_segments"])
        self.assertEqual(perfbench.gate([lossy]), [[]])

    def test_real_driver_output_trips_on_tampered_run(self):
        exe = perfbench.build()
        out = subprocess.run(
            [str(exe), "--workload", "a2c-sync-ps-lossy8", "--seed", "5",
             "--seconds", "0.2", "--trace", "0", "--tiny"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        runs = json.loads(out.strip().splitlines()[-1])["runs"]
        self.assertGreaterEqual(len(runs), 2)
        self.assertFalse(any(perfbench.gate(runs)))
        runs[-1]["fingerprint"]["total_sim_ns"] += 1
        self.assertTrue(perfbench.gate(runs)[-1])


class Spec(unittest.TestCase):
    def test_metrics_json_annotates_the_same_names(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertEqual(list(NOTES["workloads"]), WORKLOADS)
        self.assertEqual(list(NOTES["metrics"]),
                         [m["name"] for m in BENCH["end_to_end"]
                          + BENCH["per_layer"]])

    def test_every_metric_is_annotated(self):
        for m in BENCH["end_to_end"]:
            for key in ("layer", "meaning"):
                self.assertTrue(NOTES["metrics"][m["name"]].get(key),
                                (m["name"], key))
        for m in BENCH["per_layer"]:
            for key in ("layer", "moves", "workload", "meaning"):
                self.assertTrue(NOTES["metrics"][m["name"]].get(key),
                                (m["name"], key))
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
