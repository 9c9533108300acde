#!/usr/bin/env python3
"""Self-tests for the repository benchmark.

    python3 perfbench/tests/test_perfbench.py      (from the repository root)

Runs every workload at a tiny size through perfbench/run.py (building the
runner on first use), checks that each mode prints exactly the metrics
BENCHMARK.json names with their units, that the MK40 mechanism check fails
when stack handoff is disabled, and that the benchmark refuses to run
without the repository sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
INTERACTIONS = json.load(open(os.path.join(ROOT, "perfbench", "interactions.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ContractTest(unittest.TestCase):
    def test_names_are_unique_and_interactions_cover_them(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in BENCH["workloads"]},
                         set(INTERACTIONS["workloads"]))
        self.assertEqual([m["name"] for m in BENCH["per_layer"]],
                         [m["name"] for m in INTERACTIONS["per_layer"]])
        self.assertEqual({m["name"] for m in BENCH["end_to_end"]},
                         set(INTERACTIONS["end_to_end"]))
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        for m in INTERACTIONS["per_layer"]:
            self.assertIn(m["clock"], ("host", "model"))
            for target in m["moves"]:
                self.assertIn(target["metric"], e2e)
                self.assertIn(target["workload"], WORKLOADS)
        for w in BENCH["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class WorkloadTest(unittest.TestCase):
    def check_mode(self, workload, trace, key):
        proc = run(workload, trace, "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        self.assertEqual({n: m["unit"] for n, m in res["metrics"].items()}, expected)
        return res["metrics"]

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_mode(workload, 0, "end_to_end")
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_mode(workload, 1, "per_layer")

    def test_handoff_ablation_fails_the_mechanism_check(self):
        proc = run("transfer", 0, "--size", "tiny", "--no-handoff")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result(proc)["correct"])
        self.assertIn("stack handoffs != transfers", proc.stdout)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("transfer", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    unittest.main()
