#!/usr/bin/env python3
"""Perf-regression gate over the unified bench JSON schema.

Compares freshly produced bench output (BenchJsonBuilder's
{"bench", "config", "metrics"} shape) against checked-in baselines in
bench/baselines/ and fails when:

  * smp_scaling: any CPU point's rpc_per_mtick (RPC round trips per million
    virtual ticks) drops more than --tolerance below baseline, or
  * table1_discards: any workload's lat.rpc.round_trip p99 grows more than
    --tolerance above baseline, or
  * ipc_alloc: the kmsg-magazine win decays — any CPU point's magazines-on
    alloc_cycles_per_msg grows more than --tolerance above baseline, or the
    4-CPU reduction_pct falls below --min-alloc-reduction (the headline
    "magazines pay for themselves" guarantee), or
  * netipc: any drop point's rpc_per_mtick (including the deepest, 20/1000 —
    the selective-repeat engine's win under loss is the headline) drops more
    than --tolerance below baseline, or any swept drop point reports
    give_ups > 0 (RPCs must survive loss via retransmission, never
    dead-name), or a lossy point stops beating the go-back-N engine's frozen
    numbers recorded in the baseline — in throughput or in wire bytes spent
    (selective repeat resends holes, not whole windows), or
  * recognition: any per-continuation recognition site that the baseline
    shows as recognized (recognized > 0) stops being recognized, or its
    recognition rate falls more than --tolerance below the baseline rate —
    per workload section, including the netipc cluster's wakeup-absorption
    sites (netipc_recv_continue / netipc_ack_continue), or
  * slo: arming the windowed SLO tracker moves virtual time by 1% or more
    relative to the recorders-off run of the same workload (the tracker is
    a pure observer and must charge zero cycles — the expected overhead is
    exactly 0), or the armed run's vtime drifts more than --tolerance from
    the baseline, or
  * openloop: the overload-control story weakens — shedding armed at 2x the
    knee no longer delivers >= 90% of the knee goodput rate
    (shed_vs_knee_ratio), its p99.9 escapes 3x the deadline (shedding must
    bound tails, not just trim them), the unshedded ablation stops
    collapsing (goodput ratio >= 0.5 or p99.9 under 5x the deadline would
    mean the bench no longer demonstrates congestion collapse), the knee
    moves, or any swept rate's goodput_rate drifts more than --tolerance
    from the baseline curve.

Both signals are virtual-tick quantities, so for a fixed (config, seed,
scale) they are bit-deterministic: any drift at all is a real code change,
and the tolerance only exists to let intentional small changes through
without a baseline refresh. The baselines must have been generated at the
same scale the gate runs (the script cross-checks config).

Usage:
  check_perf_regression.py --baseline-dir bench/baselines \
      --smp BENCH_smp.json --table1 BENCH_table1.json [--tolerance 0.10]

Exit status: 0 clean, 1 regression (or schema/scale mismatch).
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        d = json.load(f)
    for key in ("bench", "config", "metrics"):
        if key not in d:
            sys.exit(f"error: {path} lacks '{key}' — not the unified bench schema")
    return d


def check_config_matches(name, base, cur):
    if base["config"] != cur["config"]:
        sys.exit(
            f"error: {name}: config mismatch — baseline {base['config']} vs "
            f"current {cur['config']}; regenerate the baseline at the gate's scale"
        )


def check_smp(base, cur, tolerance):
    failures = []
    base_points = {p["cpus"]: p for p in base["metrics"]["points"]}
    cur_points = {p["cpus"]: p for p in cur["metrics"]["points"]}
    if set(base_points) != set(cur_points):
        sys.exit(
            f"error: smp_scaling: CPU points differ — baseline "
            f"{sorted(base_points)} vs current {sorted(cur_points)}"
        )
    for cpus in sorted(base_points):
        want = base_points[cpus]["rpc_per_mtick"]
        got = cur_points[cpus]["rpc_per_mtick"]
        floor = want * (1.0 - tolerance)
        status = "ok"
        if got < floor:
            status = "REGRESSION"
            failures.append(
                f"smp_scaling @ {cpus} cpus: rpc_per_mtick {got:.2f} < "
                f"{floor:.2f} (baseline {want:.2f} - {tolerance:.0%})"
            )
        print(
            f"  smp_scaling {cpus} cpus: rpc_per_mtick {got:.2f} "
            f"(baseline {want:.2f}) {status}"
        )
    return failures


def rpc_p99(bench, workload):
    try:
        return bench["metrics"][workload]["histograms"]["lat.rpc.round_trip"]["p99"]
    except KeyError:
        sys.exit(
            f"error: table1_discards: no lat.rpc.round_trip p99 for "
            f"workload '{workload}'"
        )


def check_table1(base, cur, tolerance):
    failures = []
    workloads = sorted(base["metrics"])
    if workloads != sorted(cur["metrics"]):
        sys.exit(
            f"error: table1_discards: workloads differ — baseline {workloads} "
            f"vs current {sorted(cur['metrics'])}"
        )
    for workload in workloads:
        want = rpc_p99(base, workload)
        got = rpc_p99(cur, workload)
        ceiling = want * (1.0 + tolerance)
        status = "ok"
        if got > ceiling:
            status = "REGRESSION"
            failures.append(
                f"table1_discards '{workload}': lat.rpc.round_trip p99 {got} > "
                f"{ceiling:.0f} (baseline {want} + {tolerance:.0%})"
            )
        print(
            f"  table1_discards '{workload}': rpc p99 {got} ticks "
            f"(baseline {want}) {status}"
        )
    return failures


def check_ipc_alloc(base, cur, tolerance, min_reduction):
    failures = []
    base_points = {p["cpus"]: p for p in base["metrics"]["points"]}
    cur_points = {p["cpus"]: p for p in cur["metrics"]["points"]}
    if set(base_points) != set(cur_points):
        sys.exit(
            f"error: ipc_alloc: CPU points differ — baseline "
            f"{sorted(base_points)} vs current {sorted(cur_points)}"
        )
    for cpus in sorted(base_points):
        want = base_points[cpus]["magazines_on"]["alloc_cycles_per_msg"]
        got = cur_points[cpus]["magazines_on"]["alloc_cycles_per_msg"]
        reduction = cur_points[cpus]["reduction_pct"]
        ceiling = want * (1.0 + tolerance)
        status = "ok"
        if got > ceiling:
            status = "REGRESSION"
            failures.append(
                f"ipc_alloc @ {cpus} cpus: alloc_cycles_per_msg {got:.2f} > "
                f"{ceiling:.2f} (baseline {want:.2f} + {tolerance:.0%})"
            )
        if cpus == 4 and reduction < min_reduction:
            status = "REGRESSION"
            failures.append(
                f"ipc_alloc @ 4 cpus: reduction {reduction:.1f}% < "
                f"{min_reduction:.0f}% floor"
            )
        print(
            f"  ipc_alloc {cpus} cpus: alloc cyc/msg {got:.2f} "
            f"(baseline {want:.2f}), reduction {reduction:.1f}% {status}"
        )
    return failures


def check_netipc(base, cur, tolerance):
    failures = []
    base_points = {p["drop_per_mille"]: p for p in base["metrics"]["points"]}
    cur_points = {p["drop_per_mille"]: p for p in cur["metrics"]["points"]}
    if set(base_points) != set(cur_points):
        sys.exit(
            f"error: netipc: drop points differ — baseline "
            f"{sorted(base_points)} vs current {sorted(cur_points)}"
        )
    for drop in sorted(base_points):
        cur_p = cur_points[drop]
        got = cur_p["rpc_per_mtick"]
        give_ups = cur_p["give_ups"]
        status = "ok"
        # Every drop point gates throughput: the drop=20 point is where the
        # selective-repeat win over go-back-N lives, so losing it is as much
        # a regression as losing the loss-free number.
        base_p = base_points[drop]
        want = base_p["rpc_per_mtick"]
        floor = want * (1.0 - tolerance)
        if got < floor:
            status = "REGRESSION"
            failures.append(
                f"netipc @ drop={drop}: rpc_per_mtick {got:.2f} < "
                f"{floor:.2f} (baseline {want:.2f} - {tolerance:.0%})"
            )
        if give_ups > 0:
            status = "REGRESSION"
            failures.append(
                f"netipc @ drop={drop}: {give_ups} RPC give-ups — the "
                f"retransmit protocol must ride out the swept loss rates"
            )
        # Under loss, selective repeat must stay ahead of go-back-N on
        # throughput and spend fewer wire bytes. The go-back-N engine no
        # longer exists, so its numbers are read from the baseline: they are
        # frozen history and must be carried over unchanged by any
        # re-baseline of netipc.json.
        gbn = base_p.get("gbn_rpc_per_mtick")
        if drop > 0 and gbn is not None:
            if got < gbn:
                status = "REGRESSION"
                failures.append(
                    f"netipc @ drop={drop}: v2 rpc_per_mtick {got:.2f} fell "
                    f"behind go-back-N's recorded {gbn:.2f}"
                )
            if cur_p["bytes_tx"] >= base_p["gbn_bytes_tx"]:
                status = "REGRESSION"
                failures.append(
                    f"netipc @ drop={drop}: v2 sent {cur_p['bytes_tx']} wire "
                    f"bytes >= go-back-N's recorded {base_p['gbn_bytes_tx']} — "
                    f"selective repeat must resend holes, not whole windows"
                )
        print(
            f"  netipc drop={drop}/1000: rpc_per_mtick {got:.2f} "
            f"(baseline {want:.2f}, gbn {gbn if gbn is not None else 'n/a'}), "
            f"retransmits {cur_p['retransmits']}, "
            f"give_ups {give_ups} {status}"
        )
    # The OOL-heavy sweep rides along when both sides carry it: lazy pulls
    # must complete (no give-ups, every touched region pulled).
    if "ool_points" in base["metrics"] and "ool_points" in cur["metrics"]:
        for p in cur["metrics"]["ool_points"]:
            status = "ok"
            if p["give_ups"] > 0 or p["ool_pulls"] == 0:
                status = "REGRESSION"
                failures.append(
                    f"netipc ool @ drop={p['drop_per_mille']}: "
                    f"ool_pulls {p['ool_pulls']}, give_ups {p['give_ups']} — "
                    f"lazy-pull OOL must survive the swept loss rates"
                )
            print(
                f"  netipc ool drop={p['drop_per_mille']}/1000: "
                f"rpc_per_mtick {p['rpc_per_mtick']:.2f}, "
                f"ool_pulls {p['ool_pulls']}, give_ups {p['give_ups']} {status}"
            )
    return failures


def check_recognition(base, cur, tolerance):
    failures = []
    sections = sorted(base["metrics"])
    if sections != sorted(cur["metrics"]):
        sys.exit(
            f"error: recognition: sections differ — baseline {sections} vs "
            f"current {sorted(cur['metrics'])}"
        )
    for section in sections:
        base_rows = base["metrics"][section].get("per_continuation", {})
        cur_rows = cur["metrics"][section].get("per_continuation", {})
        for name in sorted(base_rows):
            brow = base_rows[name]
            if brow["recognized"] == 0:
                continue  # Gate only sites the baseline shows as recognized.
            crow = cur_rows.get(name)
            got = 0.0 if crow is None else crow["rate_pct"]
            recognized = 0 if crow is None else crow["recognized"]
            floor = brow["rate_pct"] * (1.0 - tolerance)
            status = "ok"
            if recognized == 0:
                status = "REGRESSION"
                failures.append(
                    f"recognition '{section}' {name}: no resumptions recognized "
                    f"(baseline {brow['recognized']} @ {brow['rate_pct']:.1f}%)"
                )
            elif got < floor:
                status = "REGRESSION"
                failures.append(
                    f"recognition '{section}' {name}: rate {got:.1f}% < "
                    f"{floor:.1f}% (baseline {brow['rate_pct']:.1f}% - "
                    f"{tolerance:.0%})"
                )
            print(
                f"  recognition '{section}' {name}: {recognized} recognized, "
                f"rate {got:.1f}% (baseline {brow['rate_pct']:.1f}%) {status}"
            )
    return failures


def check_slo(base, cur, tolerance):
    failures = []
    overhead = cur["metrics"]["overhead_pct"]
    status = "ok"
    if abs(overhead) >= 1.0:
        status = "REGRESSION"
        failures.append(
            f"slo: arming the tracker moved virtual time by {overhead:.4f}% "
            f"(hard ceiling 1%; a pure observer must charge zero cycles)"
        )
    print(f"  slo: armed-vs-off overhead {overhead:.4f}% (ceiling 1%) {status}")
    for metric in ("vtime_off", "vtime_slo"):
        want = base["metrics"][metric]
        got = cur["metrics"][metric]
        lo = want * (1.0 - tolerance)
        hi = want * (1.0 + tolerance)
        status = "ok"
        if got < lo or got > hi:
            status = "REGRESSION"
            failures.append(
                f"slo: {metric} {got} outside [{lo:.0f}, {hi:.0f}] "
                f"(baseline {want} ± {tolerance:.0%})"
            )
        print(f"  slo: {metric} {got} ticks (baseline {want}) {status}")
    return failures


def check_openloop(base, cur, tolerance):
    failures = []
    deadline = cur["config"]["deadline"]
    m = cur["metrics"]

    # Absolute gates first: these are the bench's reason to exist, and they
    # hold regardless of baseline drift.
    shed_vs_knee = m["shed_vs_knee_ratio"]
    status = "ok"
    if shed_vs_knee < 0.9:
        status = "REGRESSION"
        failures.append(
            f"openloop: shed arm at 2x knee delivers only "
            f"{shed_vs_knee:.0%} of knee goodput rate (floor 90%)"
        )
    print(
        f"  openloop: shed goodput at 2x knee = {shed_vs_knee:.0%} of knee "
        f"(floor 90%) {status}"
    )

    shed_p999 = m["shed_overload_p999"]
    status = "ok"
    if shed_p999 > 3 * deadline:
        status = "REGRESSION"
        failures.append(
            f"openloop: shed arm p99.9 at 2x knee is {shed_p999} ticks > "
            f"3x the {deadline}-tick deadline — shedding must bound tails"
        )
    print(
        f"  openloop: shed p99.9 at 2x knee = {shed_p999} ticks "
        f"(ceiling {3 * deadline}) {status}"
    )

    # The ablation must keep demonstrating collapse, or the shed numbers
    # above are meaningless.
    noshed_ratio = m["noshed_overload_goodput_ratio"]
    noshed_p999 = m["noshed_overload_p999"]
    status = "ok"
    if noshed_ratio >= 0.5 or noshed_p999 < 5 * deadline:
        status = "REGRESSION"
        failures.append(
            f"openloop: unshedded ablation at 2x knee no longer collapses "
            f"(goodput ratio {noshed_ratio:.2f}, p99.9 {noshed_p999}) — the "
            f"bench must show congestion collapse for the comparison to mean "
            f"anything"
        )
    print(
        f"  openloop: unshedded at 2x knee goodput ratio {noshed_ratio:.2f} "
        f"(must be < 0.5), p99.9 {noshed_p999} (must be >= {5 * deadline}) "
        f"{status}"
    )

    status = "ok"
    if m["knee_rate"] != base["metrics"]["knee_rate"]:
        status = "REGRESSION"
        failures.append(
            f"openloop: knee moved — baseline {base['metrics']['knee_rate']}"
            f"/Mtick vs current {m['knee_rate']}/Mtick; capacity changed, "
            f"regenerate the baseline if intentional"
        )
    print(
        f"  openloop: knee {m['knee_rate']}/Mtick "
        f"(baseline {base['metrics']['knee_rate']}) {status}"
    )

    # Curve drift: both arms, every swept rate. Virtual-tick determinism
    # makes any drift a real code change.
    for arm in ("noshed_curve", "shed_curve"):
        base_pts = {p["rate"]: p for p in base["metrics"][arm]}
        cur_pts = {p["rate"]: p for p in m[arm]}
        if set(base_pts) != set(cur_pts):
            sys.exit(
                f"error: openloop: {arm} rates differ — baseline "
                f"{sorted(base_pts)} vs current {sorted(cur_pts)}"
            )
        for rate in sorted(base_pts):
            want = base_pts[rate]["goodput_rate"]
            got = cur_pts[rate]["goodput_rate"]
            lo = want * (1.0 - tolerance)
            hi = want * (1.0 + tolerance)
            status = "ok"
            if got < lo or got > hi:
                status = "REGRESSION"
                failures.append(
                    f"openloop {arm} @ {rate}/Mtick: goodput_rate {got:.1f} "
                    f"outside [{lo:.1f}, {hi:.1f}] (baseline {want:.1f} ± "
                    f"{tolerance:.0%})"
                )
            print(
                f"  openloop {arm} {rate}/Mtick: goodput_rate {got:.1f} "
                f"(baseline {want:.1f}) {status}"
            )
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("--smp", help="current smp_scaling bench JSON")
    ap.add_argument("--table1", help="current table1_discards bench JSON")
    ap.add_argument("--ipc-alloc", help="current ipc_alloc bench JSON")
    ap.add_argument("--netipc", help="current netipc bench JSON")
    ap.add_argument("--recognition", help="current table2_recognition bench JSON")
    ap.add_argument("--slo", help="current slo overhead bench JSON")
    ap.add_argument("--openloop", help="current openloop overload bench JSON")
    ap.add_argument("--tolerance", type=float, default=0.10)
    ap.add_argument("--min-alloc-reduction", type=float, default=20.0)
    args = ap.parse_args()
    if (not args.smp and not args.table1 and not args.ipc_alloc
            and not args.netipc and not args.recognition and not args.slo
            and not args.openloop):
        ap.error(
            "nothing to check: pass --smp, --table1, --ipc-alloc, --netipc, "
            "--recognition, --slo and/or --openloop"
        )

    failures = []
    if args.smp:
        base = load(os.path.join(args.baseline_dir, "smp_scaling.json"))
        cur = load(args.smp)
        check_config_matches("smp_scaling", base, cur)
        failures += check_smp(base, cur, args.tolerance)
    if args.table1:
        base = load(os.path.join(args.baseline_dir, "table1_discards.json"))
        cur = load(args.table1)
        check_config_matches("table1_discards", base, cur)
        failures += check_table1(base, cur, args.tolerance)
    if args.ipc_alloc:
        base = load(os.path.join(args.baseline_dir, "ipc_alloc.json"))
        cur = load(args.ipc_alloc)
        check_config_matches("ipc_alloc", base, cur)
        failures += check_ipc_alloc(base, cur, args.tolerance,
                                    args.min_alloc_reduction)
    if args.netipc:
        base = load(os.path.join(args.baseline_dir, "netipc.json"))
        cur = load(args.netipc)
        check_config_matches("netipc", base, cur)
        failures += check_netipc(base, cur, args.tolerance)
    if args.recognition:
        base = load(os.path.join(args.baseline_dir, "recognition.json"))
        cur = load(args.recognition)
        check_config_matches("recognition", base, cur)
        failures += check_recognition(base, cur, args.tolerance)
    if args.slo:
        base = load(os.path.join(args.baseline_dir, "slo.json"))
        cur = load(args.slo)
        check_config_matches("slo", base, cur)
        failures += check_slo(base, cur, args.tolerance)
    if args.openloop:
        base = load(os.path.join(args.baseline_dir, "openloop.json"))
        cur = load(args.openloop)
        check_config_matches("openloop", base, cur)
        failures += check_openloop(base, cur, args.tolerance)

    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
