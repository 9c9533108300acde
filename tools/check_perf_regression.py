#!/usr/bin/env python3
"""Perf-regression gate: checks bench JSON against the gates its baseline declares.

Every bench writes {"bench", "config", "metrics"} (BenchJsonBuilder). Its
baseline is DIR/<bench>.json: the same three keys from a reference run, plus
a "gates" list with one gate per line:

  {"path": [key, ...], "op": "<" | "<=" | ">" | ">=" | "==", "bound": N}
  {"path": [key, ...], "op": ..., "base": k}   # bound = k x baseline value

A path is a list of JSON object keys and list indices. "*" ranges over every
element of a list, paired by index with the baseline's list, or over every
key of an object. A gate holds when `current op bound` holds for every value
its path reaches. The gate fails when the path reaches nothing in the current
JSON or in the baseline, when "*" meets lists of different length or objects
with different keys, when the config differs from the baseline's, and when
the baseline declares no gates.

The gated values are virtual-tick quantities, bit-deterministic for a fixed
config, so any drift is a real code change; the per-gate bounds only let
intentional small changes through without a re-baseline.

Re-baselining: rerun the bench at the baseline's config and replace the
baseline's "bench", "config" and "metrics" keys with its output. Keep
"gates": a refresh must never drop or loosen them.

Usage:
  check_perf_regression.py --baseline-dir bench/baselines BENCH.json...

Exit status: 0 clean, 1 regression or malformed input.
"""

import argparse
import json
import operator
import os
import sys

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}


class GateError(Exception):
    pass


def load(path):
    with open(path) as f:
        d = json.load(f)
    for key in ("bench", "config", "metrics"):
        if key not in d:
            raise GateError(f"{path} lacks '{key}': not the unified bench schema")
    return d


def show(where):
    return "/".join(str(k) for k in where)


def child(node, key, side, where):
    try:
        return node[key]
    except (KeyError, IndexError, TypeError):
        raise GateError(f"{side} has no {show(where + (key,))}") from None


def resolve(cur, base, path, where=()):
    """Yields (where, current value, baseline value) for each leaf of path."""
    if not path:
        for side, v in (("current", cur), ("baseline", base)):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise GateError(f"{side} {show(where)} is not a number")
        yield where, cur, base
        return
    key, rest = path[0], path[1:]
    keys = [key]
    if key == "*":
        if isinstance(cur, list) and isinstance(base, list):
            if len(cur) != len(base):
                raise GateError(f"{show(where)} has {len(cur)} elements, "
                                f"baseline {len(base)}")
            keys = range(len(cur))
        elif isinstance(cur, dict) and isinstance(base, dict):
            if cur.keys() != base.keys():
                raise GateError(f"{show(where)} keys {sorted(cur)} differ "
                                f"from baseline {sorted(base)}")
            keys = list(cur)
        else:
            raise GateError(f"'*' at {show(where)} needs a list or object on both sides")
    for k in keys:
        yield from resolve(child(cur, k, "current", where),
                           child(base, k, "baseline", where), rest, where + (k,))


def check(cur, base):
    name = cur["bench"]
    if cur["config"] != base["config"]:
        raise GateError(f"{name}: config {cur['config']} differs from baseline "
                        f"{base['config']}; run the bench at the baseline's config")
    if not base.get("gates"):
        raise GateError(f"{name}: baseline declares no gates")
    failures = []
    for gate in base["gates"]:
        if ("path" not in gate or gate.get("op") not in OPS
                or ("bound" in gate) == ("base" in gate)):
            raise GateError(f"{name}: malformed gate {gate}")
        leaves = list(resolve(cur, base, gate["path"]))
        if not leaves:
            raise GateError(f"{name}: {show(gate['path'])} reaches no value")
        for where, got, want in leaves:
            bound = gate["bound"] if "bound" in gate else gate["base"] * want
            line = f"{name} {show(where)}: {got} {gate['op']} {bound:.6g}"
            if "base" in gate:
                line += f" ({gate['base']:g} x baseline {want})"
            ok = OPS[gate["op"]](got, bound)
            print(f"  {line} {'ok' if ok else 'REGRESSION'}")
            if not ok:
                failures.append(line)
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("bench_json", nargs="+", help="bench output to check")
    args = ap.parse_args(argv)

    failures = []
    try:
        for path in args.bench_json:
            cur = load(path)
            base = load(os.path.join(args.baseline_dir, f"{cur['bench']}.json"))
            failures += check(cur, base)
    except (GateError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
