#!/usr/bin/env python3
"""Merge BENCH_<name>.json metric files across commits and flag regressions.

Every bench binary writes a flat ``BENCH_<name>.json`` (see
docs/benchmarks.md for the schema). This script maintains an append-only
JSONL history of those metrics, one record per (label, bench), and compares
consecutive records to catch performance regressions in the watched
higher-is-better series (the ROADMAP "perf trajectory" item).

Subcommands:
  collect  scan a directory for BENCH_*.json and append labelled records
  check    compare each bench's newest record against its previous one
  report   print the full history as a per-metric table

Examples:
  python3 scripts/collect_bench.py collect --dir build
  python3 scripts/collect_bench.py check --threshold 0.15 --strict
  python3 scripts/collect_bench.py report
"""

import argparse
import glob
import json
import os
import subprocess
import sys

DEFAULT_HISTORY = "bench_history.jsonl"
# Higher-is-better series watched by default (ROADMAP headline numbers).
# The nn_* trio covers the inference engines: the f32 lowered GEMM pair
# (bench_nn_infer) and the int8 quantized path (bench_nn_int8): a
# >threshold drop in any of them fails the strict CI gate just like the
# event-core and fleet series.
DEFAULT_WATCH = [
    "events_per_s",
    "sweep_points_per_s",
    # Sweep throughput when point costs differ 4x across the range, the
    # fleet grid's shape (bench_perf_sim_core): a scheduling regression that
    # leaves threads idle behind the expensive points shows here first.
    "sweep_skewed_points_per_s",
    "fleet_points_per_s",
    # Streaming-fleet throughput (bench_fleet_grid's population-scale
    # section, docs/scaling.md): full NetworkSim points per second through
    # Fleet::run_streaming including spill + online folding.
    "fleet_stream_points_per_s",
    "nn_single_infer_per_s_vww",
    "nn_batched_items_per_s_vww",
    "nn_int8_batched_items_per_s_vww",
    # Correctness-as-perf sentinel: clean-path leaf availability must stay
    # exactly 1.0 (a dip means the default config started injecting faults).
    "fault_availability_none",
    # Closed-loop payoff under sustained interference: the fraction of the
    # clean-channel goodput the armed degradation controller retains at the
    # gym SIR level (bench_channel_stress, docs/robustness.md).
    "channel_stress_goodput_retained",
    # Server-tier saturation: staged items per second through the hub's
    # batched engine at the traffic-replay knee (bench_hub_traffic_replay,
    # docs/scaling.md).
    "hub_replay_items_per_s",
]
# Lower-is-better series: a >threshold *increase* is the regression. The
# split-validation error is how far the partitioner's analytic per-venue
# energy drifts from the executed-and-metered measurement; if it creeps up,
# the cost model and the engine have diverged. The streaming peak RSS is the
# O(batch)-memory contract as a number: if it starts tracking grid size
# again, someone broke the spill path. Timing noise makes tiny values
# jittery, so the relative change is computed against max(old, LOWER_FLOOR)
# rather than the raw old value.
DEFAULT_WATCH_LOWER = [
    "split_costmodel_max_rel_err",
    "fleet_stream_peak_rss_mb",
    # Closed-loop recovery time: seconds from the end of the deterministic
    # occlusion episode until every node is back on rung 0; if it creeps up,
    # the ladder's step-up hysteresis or dwell gating regressed.
    "degradation_recovery_s",
    # Staging delay at the replay knee: p99 delivery -> flush latency of the
    # saturation grid's reference point; if it creeps up, the batched
    # engine's flush cadence (or the adaptive trigger) regressed.
    "hub_replay_p99_queued_latency_s",
    # Metered kernel time at the replay grid's largest engine thread count
    # over t=1 for identical work. Kernels are metered by thread CPU time, so
    # this sits near 1.0; if it grows, preemption or contention is leaking
    # back into kernel_time_s / compute_energy_j.
    "hub_meter_time_ratio",
]
LOWER_FLOOR = 0.05


def git_label():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unlabelled"


def load_history(path):
    records = []
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                print(f"warning: {path}:{line_no}: unparseable record: {e}",
                      file=sys.stderr)
    return records


def cmd_collect(args):
    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json files under {args.dir!r}", file=sys.stderr)
        return 1
    label = args.label or git_label()
    appended = 0
    with open(args.history, "a", encoding="utf-8") as hist:
        for path in paths:
            with open(path, encoding="utf-8") as f:
                try:
                    data = json.load(f)
                except json.JSONDecodeError as e:
                    print(f"warning: skipping {path}: {e}", file=sys.stderr)
                    continue
            record = {
                "label": label,
                "bench": data.get("bench", os.path.basename(path)),
                "metrics": data.get("metrics", {}),
            }
            hist.write(json.dumps(record, sort_keys=True) + "\n")
            appended += 1
    print(f"appended {appended} record(s) labelled {label!r} to {args.history}")
    return 0


def cmd_check(args):
    records = load_history(args.history)
    if not records:
        print(f"empty or missing history {args.history!r}; run collect first",
              file=sys.stderr)
        return 1
    watch = set(DEFAULT_WATCH) | set(args.watch or [])
    watch_lower = set(DEFAULT_WATCH_LOWER)
    by_bench = {}
    for rec in records:
        by_bench.setdefault(rec["bench"], []).append(rec)

    flagged = []
    for bench, recs in sorted(by_bench.items()):
        if len(recs) < 2:
            print(f"{bench}: only one record ({recs[-1]['label']}), nothing to compare")
            continue
        prev, cur = recs[-2], recs[-1]
        for metric in sorted(watch | watch_lower):
            if metric not in prev["metrics"] or metric not in cur["metrics"]:
                continue
            old, new = prev["metrics"][metric], cur["metrics"][metric]
            if metric in watch_lower:
                change = (new - old) / max(old, LOWER_FLOOR)
                regressed = change > args.threshold
            else:
                if not old:
                    continue
                change = (new - old) / old
                regressed = change < -args.threshold
            status = "ok"
            if regressed:
                status = "REGRESSION"
                flagged.append((bench, metric, old, new, change))
            print(f"{bench}: {metric}: {old:.6g} ({prev['label']}) -> "
                  f"{new:.6g} ({cur['label']}) {change:+.1%} {status}")

    if flagged:
        print(f"\n{len(flagged)} regression(s) beyond {args.threshold:.0%}:")
        for bench, metric, old, new, change in flagged:
            print(f"  {bench}.{metric}: {old:.6g} -> {new:.6g} ({change:+.1%})")
        return 1 if args.strict else 0
    print("\nno regressions in watched metrics")
    return 0


def cmd_report(args):
    records = load_history(args.history)
    if not records:
        print(f"empty or missing history {args.history!r}", file=sys.stderr)
        return 1
    rows = []
    for rec in records:
        for metric, value in sorted(rec["metrics"].items()):
            rows.append((rec["bench"], metric, rec["label"], value))
    widths = [max(len(str(r[i])) for r in rows + [("bench", "metric", "label", "value")])
              for i in range(4)]
    header = ("bench", "metric", "label", "value")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for bench, metric, label, value in rows:
        print(f"{bench.ljust(widths[0])}  {metric.ljust(widths[1])}  "
              f"{label.ljust(widths[2])}  {value}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="append BENCH_*.json files to the history")
    p_collect.add_argument("--dir", default=".", help="directory holding BENCH_*.json")
    p_collect.add_argument("--history", default=DEFAULT_HISTORY)
    p_collect.add_argument("--label", help="record label (default: git short hash)")
    p_collect.set_defaults(fn=cmd_collect)

    p_check = sub.add_parser("check", help="flag regressions vs the previous record")
    p_check.add_argument("--history", default=DEFAULT_HISTORY)
    p_check.add_argument("--threshold", type=float, default=0.15,
                         help="relative drop that counts as a regression (default 0.15)")
    p_check.add_argument("--watch", nargs="*",
                         help=f"extra higher-is-better metrics (default: {DEFAULT_WATCH})")
    p_check.add_argument("--strict", action="store_true",
                         help="exit non-zero when a regression is flagged")
    p_check.set_defaults(fn=cmd_check)

    p_report = sub.add_parser("report", help="print the full metric history")
    p_report.add_argument("--history", default=DEFAULT_HISTORY)
    p_report.set_defaults(fn=cmd_report)

    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
