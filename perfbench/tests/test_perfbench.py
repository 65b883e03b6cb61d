#!/usr/bin/env python3
"""The benchmark's own tests: smoke, oracle, and layer separation.

    python3 perfbench/tests/test_perfbench.py            # from the repo root

Each workload runs for a couple of seconds, untraced and traced, through
perfbench/run.py exactly as the benchmark command does. Takes a few minutes.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SECONDS = "2"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# The gated workloads plus served-repl, which runs the replication layer.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["served-repl"]


def run(workload, trace, inject=None, seed=7):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    """Every metric BENCHMARK.json names is printed, with its unit."""

    traced = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            proc = run(w, trace=1)
            assert proc.returncode == 0, f"traced {w} exited {proc.returncode}"
            cls.traced[w] = result_of(proc)

    def check(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for m in wanted:
            got = result["metrics"].get(m["name"])
            self.assertIsNotNone(got, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, trace=0)
                self.assertEqual(proc.returncode, 0)
                result = result_of(proc)
                self.check(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)  # end-to-end metrics are never 0

    def test_traced_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(self.traced[w], SPEC["per_layer"])
                self.assertIn("trace.overhead_pct", self.traced[w]["metrics"])

    # ---- layer separation on the traced runs -------------------------------

    def layer(self, workload, name):
        return self.traced[workload]["metrics"][name]["value"]

    def test_checkpoints_follow_the_put_rate(self):
        # The put-rate ratio of kv-read to kv-update is about 1/11.
        self.assertGreater(self.layer("kv-update", "dipper.checkpoints_per_s"), 0)
        self.assertLessEqual(self.layer("kv-read", "dipper.checkpoints_per_s"),
                             self.layer("kv-update", "dipper.checkpoints_per_s") / 5)

    def test_kv_workloads_bypass_net_and_repl(self):
        for w in ("kv-update", "kv-read"):
            for name in self.traced[w]["metrics"]:
                if name.startswith(("net.", "repl.")):
                    self.assertEqual(self.layer(w, name), 0, f"{name} on {w}")

    def test_served_runs_no_replication(self):
        for name in self.traced["served"]["metrics"]:
            if name.startswith("repl."):
                self.assertEqual(self.layer("served", name), 0, name)
        self.assertGreater(self.layer("served", "net.bytes_in_per_op"), 0)
        self.assertGreater(self.layer("served-repl", "repl.append_rtt_p50_us"), 0)

    def test_no_checksum_failures_or_resyncs(self):
        for w in WORKLOADS:
            self.assertEqual(self.layer(w, "ssd.crc_failures"), 0, w)
            self.assertEqual(self.layer(w, "repl.resyncs"), 0, w)


class Oracle(unittest.TestCase):
    """A corrupted value or a dropped write fails the run."""

    def test_faults_trip_the_oracle(self):
        for w in ("kv-update", "served"):
            for inject in ("corrupt-get", "drop-put"):
                with self.subTest(workload=w, inject=inject):
                    proc = run(w, trace=0, inject=inject)
                    self.assertNotEqual(proc.returncode, 0)
                    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
                    self.assertNotIn('"correct": true', last)


class Design(unittest.TestCase):
    """layers.json records every per-layer metric's layer and predictions."""

    def test_every_per_layer_metric_is_documented(self):
        with open(os.path.join(BENCH, "layers.json")) as f:
            doc = json.load(f)["metrics"]
        for m in SPEC["per_layer"]:
            entry = doc.get(m["name"])
            self.assertIsNotNone(entry, m["name"])
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            for key in ("layer", "should_move", "on", "no_change_on"):
                self.assertIn(key, entry, m["name"])


if __name__ == "__main__":
    unittest.main()
