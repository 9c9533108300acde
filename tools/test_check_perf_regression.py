#!/usr/bin/env python3
"""Tests for check_perf_regression.py, the declarative perf-gate checker.

Run: python3 tools/test_check_perf_regression.py
"""

import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "check_perf_regression.py")
BASELINES = os.path.join(HERE, "..", "bench", "baselines")

_spec = importlib.util.spec_from_file_location("check_perf_regression", CHECKER)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def bench_output(baseline):
    """What the bench writes: the baseline without its gates."""
    return {k: copy.deepcopy(baseline[k]) for k in ("bench", "config", "metrics")}


def set_at(doc, where, value):
    for k in where[:-1]:
        doc = doc[k]
    doc[where[-1]] = value


def just_past(op, bound):
    """The nearest value that breaks `value op bound`."""
    if op in ("<", ">"):
        return bound
    return math.nextafter(bound, -math.inf if op == ">=" else math.inf)


class CheckerCase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_checker(self, baseline, current):
        """Writes both documents and runs the checker; returns (rc, stdout)."""
        with open(os.path.join(self.tmp.name, f"{baseline['bench']}.json"), "w") as f:
            json.dump(baseline, f)
        cur_path = os.path.join(self.tmp.name, "current.json")
        with open(cur_path, "w") as f:
            json.dump(current, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = checker.main(["--baseline-dir", self.tmp.name, cur_path])
        return rc, out.getvalue()

    def gated(self, metrics, *gates):
        return {"bench": "toy", "config": {"scale": 1}, "metrics": metrics,
                "gates": list(gates)}

    def check_value(self, gate, value, base_value=10):
        baseline = self.gated({"x": base_value}, gate)
        rc, _ = self.run_checker(baseline, {"bench": "toy", "config": {"scale": 1},
                                            "metrics": {"x": value}})
        return rc


class OperatorTest(CheckerCase):
    def test_each_op_at_its_bound(self):
        # value == bound passes the non-strict ops and fails the strict ones.
        for op, at_bound in (("<", 1), ("<=", 0), (">", 1), (">=", 0), ("==", 0)):
            with self.subTest(op=op):
                gate = {"path": ["metrics", "x"], "op": op, "bound": 5}
                self.assertEqual(self.check_value(gate, 5), at_bound)

    def test_each_op_just_inside_and_past(self):
        for op, inside in (("<", 4.5), ("<=", 4.5), (">", 5.5), (">=", 5.5)):
            with self.subTest(op=op):
                gate = {"path": ["metrics", "x"], "op": op, "bound": 5}
                self.assertEqual(self.check_value(gate, inside), 0)
                self.assertEqual(self.check_value(gate, 10 - inside), 1)
        gate = {"path": ["metrics", "x"], "op": "==", "bound": 5}
        self.assertEqual(self.check_value(gate, 5.000001), 1)

    def test_base_scales_the_baseline_value(self):
        floor = {"path": ["metrics", "x"], "op": ">=", "base": 0.9}
        self.assertEqual(self.check_value(floor, 9, base_value=10), 0)
        self.assertEqual(self.check_value(floor, math.nextafter(9, 0), base_value=10), 1)
        ceiling = {"path": ["metrics", "x"], "op": "<=", "base": 1.1}
        self.assertEqual(self.check_value(ceiling, 11, base_value=10), 0)
        self.assertEqual(self.check_value(ceiling, 11.01, base_value=10), 1)

    def test_malformed_gates_fail(self):
        for gate in ({"path": ["metrics", "x"], "op": "!=", "bound": 5},
                     {"path": ["metrics", "x"], "op": "<"},
                     {"path": ["metrics", "x"], "op": "<", "bound": 5, "base": 1},
                     {"op": "<", "bound": 5}):
            with self.subTest(gate=gate):
                self.assertEqual(self.check_value(gate, 1), 1)


class PathTest(CheckerCase):
    def test_star_over_list_pairs_by_index(self):
        gate = {"path": ["metrics", "pts", "*", "v"], "op": ">=", "base": 1}
        baseline = self.gated({"pts": [{"v": 1}, {"v": 5}]}, gate)
        cur = bench_output(baseline)
        self.assertEqual(self.run_checker(baseline, cur)[0], 0)
        # Swapping the elements keeps the set of values but breaks the pairing.
        cur["metrics"]["pts"].reverse()
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_star_over_dict_keys(self):
        gate = {"path": ["metrics", "*", "p99"], "op": "<=", "bound": 100}
        baseline = self.gated({"a b": {"p99": 50}, "c.d": {"p99": 60}}, gate)
        cur = bench_output(baseline)
        rc, out = self.run_checker(baseline, cur)
        self.assertEqual(rc, 0)
        self.assertIn("metrics/a b/p99", out)
        self.assertIn("metrics/c.d/p99", out)
        cur["metrics"]["c.d"]["p99"] = 101
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_list_index_in_path(self):
        gate = {"path": ["metrics", "pts", 1, "v"], "op": "<", "bound": 3}
        baseline = self.gated({"pts": [{"v": 9}, {"v": 2}]}, gate)
        self.assertEqual(self.run_checker(baseline, bench_output(baseline))[0], 0)

    def test_length_mismatch_fails(self):
        gate = {"path": ["metrics", "pts", "*", "v"], "op": ">", "bound": 0}
        baseline = self.gated({"pts": [{"v": 1}, {"v": 2}]}, gate)
        cur = bench_output(baseline)
        cur["metrics"]["pts"].append({"v": 3})
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)
        cur["metrics"]["pts"] = cur["metrics"]["pts"][:1]
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_key_set_mismatch_fails(self):
        gate = {"path": ["metrics", "*", "p99"], "op": ">", "bound": 0}
        baseline = self.gated({"a": {"p99": 1}, "b": {"p99": 1}}, gate)
        cur = bench_output(baseline)
        cur["metrics"]["c"] = {"p99": 1}
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)
        cur = bench_output(baseline)
        del cur["metrics"]["b"]
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_unresolved_path_fails_on_either_side(self):
        gate = {"path": ["metrics", "x"], "op": ">", "bound": 0}
        baseline = self.gated({"x": 1}, gate)
        cur = bench_output(baseline)
        del cur["metrics"]["x"]
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)
        del baseline["metrics"]["x"]
        cur["metrics"]["x"] = 1
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_one_unresolved_element_fails_the_gate(self):
        gate = {"path": ["metrics", "pts", "*", "v"], "op": ">", "bound": 0}
        baseline = self.gated({"pts": [{"v": 1}, {"v": 2}]}, gate)
        cur = bench_output(baseline)
        del cur["metrics"]["pts"][1]["v"]
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_path_reaching_no_value_fails(self):
        gate = {"path": ["metrics", "pts", "*", "v"], "op": ">", "bound": 0}
        baseline = self.gated({"pts": []}, gate)
        self.assertEqual(self.run_checker(baseline, bench_output(baseline))[0], 1)

    def test_non_numeric_leaf_fails(self):
        gate = {"path": ["metrics", "pts"], "op": ">", "bound": 0}
        baseline = self.gated({"pts": [1]}, gate)
        self.assertEqual(self.run_checker(baseline, bench_output(baseline))[0], 1)


class DocumentTest(CheckerCase):
    def test_config_mismatch_fails(self):
        baseline = self.gated({"x": 1}, {"path": ["metrics", "x"], "op": ">", "bound": 0})
        cur = bench_output(baseline)
        cur["config"]["scale"] = 2
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_baseline_without_gates_fails(self):
        baseline = self.gated({"x": 1})
        self.assertEqual(self.run_checker(baseline, bench_output(baseline))[0], 1)
        del baseline["gates"]
        self.assertEqual(self.run_checker(baseline, bench_output(baseline))[0], 1)

    def test_schema_and_missing_baseline_fail(self):
        baseline = self.gated({"x": 1}, {"path": ["metrics", "x"], "op": ">", "bound": 0})
        cur = bench_output(baseline)
        del cur["config"]
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)
        cur = bench_output(baseline)
        cur["bench"] = "no_such_bench"
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)

    def test_cli_takes_one_flag(self):
        path = os.path.join(BASELINES, "slo.json")
        run = lambda *args: subprocess.run(
            [sys.executable, CHECKER, *args], capture_output=True, text=True)
        self.assertEqual(run("--baseline-dir", BASELINES, path).returncode, 0)
        self.assertEqual(run("--baseline-dir", BASELINES, "--slo", path).returncode, 2)
        self.assertEqual(run("--baseline-dir", BASELINES).returncode, 2)


class CheckedInBaselineTest(CheckerCase):
    def baselines(self):
        names = sorted(n for n in os.listdir(BASELINES) if n.endswith(".json"))
        self.assertEqual(len(names), 7)
        for name in names:
            with open(os.path.join(BASELINES, name)) as f:
                baseline = json.load(f)
            self.assertEqual(name, f"{baseline['bench']}.json")
            yield baseline

    def test_each_baseline_passes_against_itself(self):
        for baseline in self.baselines():
            with self.subTest(bench=baseline["bench"]):
                self.assertEqual(self.run_checker(baseline, bench_output(baseline))[0], 0)

    def test_every_gate_can_fail(self):
        # Push each value a gate reaches just past its bound: the checker must
        # report that value. A gate whose path matched nothing would not.
        for baseline in self.baselines():
            cur = bench_output(baseline)
            for gate in baseline["gates"]:
                leaves = list(checker.resolve(cur, baseline, gate["path"]))
                self.assertTrue(leaves, gate)
                for where, _, want in leaves:
                    bound = gate["bound"] if "bound" in gate else gate["base"] * want
                    broken = copy.deepcopy(cur)
                    set_at(broken, where, just_past(gate["op"], bound))
                    with self.subTest(bench=baseline["bench"], where=where, op=gate["op"]):
                        rc, out = self.run_checker(baseline, broken)
                        self.assertEqual(rc, 1)
                        tag = f"{baseline['bench']} {checker.show(where)}:"
                        self.assertTrue(any(tag in line and "REGRESSION" in line
                                            for line in out.splitlines()), out)

    def test_netipc_ool_gate_is_not_vacuous(self):
        # The OOL sweep's gates must fail, not skip, when the bench stops
        # emitting ool_points.
        baseline = next(b for b in self.baselines() if b["bench"] == "netipc")
        cur = bench_output(baseline)
        del cur["metrics"]["ool_points"]
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)
        cur["metrics"]["ool_points"] = []
        self.assertEqual(self.run_checker(baseline, cur)[0], 1)


if __name__ == "__main__":
    unittest.main()
