#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_trajectory.json.

Compares the gauges of a fresh bench trajectory against a committed
baseline (bench/BENCH_baseline.json, schema v1) and fails when a watched
gauge regresses by more than the allowed tolerance. Only gauges named in
the baseline's "watch" list are gated — phase wall-times and byte counters
jitter too much at smoke scale to gate wholesale, so the baseline states
exactly which invariants it protects and in which direction.

Baseline schema (grapple.bench_baseline.v1):

    {
      "schema": "grapple.bench_baseline.v1",
      "scale": 0.1,
      "tolerance": 0.25,
      "watch": [
        {"key": "<bench>/<subject>/<phase>/gauge:<name>",
         "value": 2.9,
         "direction": "higher_is_better",   # or lower_is_better
         "min"?: 1.0,                        # optional hard floor
         "max"?: 0.0,                        # optional hard ceiling
         "min_scale"?: 1.0,                  # skip below this GRAPPLE_SCALE
         "max_scale"?: 0.1,                  # skip above this GRAPPLE_SCALE
         "min_cores"?: 4,                    # skip on machines with fewer cores
         "tolerance"?: 0.5}                  # optional per-key override
      ]
    }

A watched key must exist in the trajectory; a missing key fails the gate
(a silently dropped metric is itself a regression). Keys use gauge names
because gauges carry the bench's derived results (speedups, ratios,
identity flags); raw counters stay diffable by hand via the trajectory
file.

Usage:
    check_bench.py --baseline bench/BENCH_baseline.json TRAJECTORY.json
    check_bench.py --write-baseline bench/BENCH_baseline.json TRAJECTORY.json
    check_bench.py --baseline ... --inject-regression 2.0 TRAJECTORY.json

--inject-regression multiplies every watched trajectory value by the given
factor in the regressing direction before checking; CI uses it to prove
the gate actually fails (see scripts/ci.sh bench mode). --write-baseline
emits a fresh baseline from the trajectory, keeping the watch list and
tolerances of an existing baseline when one is present at the target path.

Re-baselining: run scripts/bench.sh at the CI scale, then
    python3 scripts/check_bench.py --write-baseline bench/BENCH_baseline.json \
        <out-dir>/BENCH_trajectory.json
and commit the result together with the change that moved the numbers.
"""

import argparse
import json
import sys

BASELINE_SCHEMA = "grapple.bench_baseline.v1"
TRAJECTORY_SCHEMA = "grapple.bench_trajectory.v1"

# Watch list used when writing a baseline from scratch. Direction encodes
# what "worse" means for each gauge; floors/ceilings are hard acceptance
# criteria that hold regardless of the baseline value.
DEFAULT_WATCH = [
    {
        "key": "table3_performance/scheduler_speedup/scheduler/gauge:sched_speedup",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table3_performance/scheduler_speedup/scheduler/gauge:sched_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Share of the spilling (16KB-budget) run's partition loads served
        # by the write-back or prefetch cache instead of a foreground read.
        # A work count; it replaced an io_speedup floor and an io_seconds
        # ceiling, which timed 1-4 ms of I/O and tripped on loaded machines.
        "key": "table3_performance/io_pipeline/io_pipeline/gauge:io_cache_served_frac",
        "direction": "higher_is_better",
        "min": 0.75,
    },
    {
        # 1 - io_bytes_written / io_raw_bytes: the block format's on-disk
        # saving against the RawFormatBytes size model of the same writes
        # (the number the retired raw-format A/B arm used to measure).
        "key": "table3_performance/io_pipeline/io_pipeline/gauge:io_bytes_written_reduction",
        "direction": "higher_is_better",
        "min": 0.30,
    },
    {
        # The spilling run's reports are byte-identical to an in-memory
        # (64 MB) run of the same subject.
        "key": "table3_performance/io_pipeline/io_pipeline/gauge:io_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Share of store I/O executed on the task runtime's background
        # lanes instead of blocking the foreground path, measured on the
        # spilling 16KB-budget subject. The floor guards against store I/O
        # moving back onto the foreground path; the baseline-relative check
        # guards gradual erosion.
        "key": "table3_performance/task_runtime/task_runtime/gauge:tr_io_overlap",
        "direction": "higher_is_better",
        "min": 0.05,
        "tolerance": 0.5,
    },
    {
        # Share of pair-affine tasks that ran on their home worker with
        # locality-aware stealing enabled. A collapse here means thieves
        # stopped respecting locality hints (wasting the store's prefetch).
        "key": "table3_performance/task_runtime/task_runtime/gauge:tr_steal_efficiency",
        "direction": "higher_is_better",
        "min": 0.05,
        "tolerance": 0.75,
    },
    {
        # The steal policy may not change a single report byte: the
        # locality-aware run against the always-steal run, at any scale.
        "key": "table3_performance/task_runtime/task_runtime/gauge:tr_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Acceptance criterion of the checkpoint/resume work: time inside
        # the checkpoint phase (quiesce + manifest encode + fsync + rename
        # + GC) must stay under 5% of the checkpointing run's wall time.
        # A full-scale property — smoke runs finish in tens of milliseconds
        # and are dominated by the fixed per-manifest fsync — so the entry
        # only applies from scale 1.0 up (the nightly sweep); see
        # ckpt_per_manifest_seconds for the smoke-scale guard.
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_phase_fraction",
        "direction": "lower_is_better",
        "max": 0.05,
        "min_scale": 1.0,
        "tolerance": 2.0,
    },
    {
        # Scale-independent smoke guard for the same subsystem: publishing
        # one manifest (quiesce + encode + fsync + rename + GC, amortized)
        # is a few milliseconds; an order-of-magnitude regression (e.g. an
        # encode that stopped being incremental) trips the ceiling.
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_per_manifest_seconds",
        "direction": "lower_is_better",
        "max": 0.05,
        "tolerance": 2.0,
    },
    {
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # A checkpointing run must actually publish manifests (at least the
        # final fixpoint manifest per engine) or the overhead gate above is
        # gating nothing.
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_manifests_written",
        "direction": "higher_is_better",
        "min": 1.0,
        "tolerance": 1.0,
    },
    {
        # Acceptance criterion of the observability work: flight recorder +
        # metrics sampler together cost at most 2% wall time. A full-scale
        # property — smoke runs are dominated by scheduler jitter — so the
        # ceiling applies from scale 1.0 up (the nightly sweep). The gauge
        # is clamped at zero (negative A/B deltas are jitter).
        "key": "table3_performance/obs_overhead/observability/gauge:obs_overhead",
        "direction": "lower_is_better",
        "max": 0.02,
        "min_scale": 1.0,
        "tolerance": 2.0,
    },
    {
        # Reports must stay byte-identical with the recorder on, at any
        # scale.
        "key": "table3_performance/obs_overhead/observability/gauge:obs_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Acceptance criterion of the sampling profiler: SIGPROF sampling at
        # the default 97 Hz plus ring harvesting costs at most 2% wall time.
        # Like obs_overhead, a full-scale property (smoke runs are scheduler
        # jitter), clamped at zero.
        "key": "table3_performance/prof_overhead/profiler/gauge:prof_overhead",
        "direction": "lower_is_better",
        "max": 0.02,
        "min_scale": 1.0,
        "tolerance": 2.0,
    },
    {
        # Reports must stay byte-identical with profiling on, at any scale.
        "key": "table3_performance/prof_overhead/profiler/gauge:prof_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Alias joins on hbase@0.3 at a 4 MB budget (the closure splits)
        # over joins at 64 MB (it does not). Splits carry done-versions, so
        # repartitioning must not redo old x old joins (a closure that
        # restarts every pair after a split makes 4.49x). Deterministic: a
        # pure work count, the same on any machine.
        "key": "table3_performance/repartition/repartition/gauge:rp_joins_ratio",
        "direction": "lower_is_better",
        "max": 1.10,
    },
    {
        # The 4 MB run must actually take the split path, or the ratio
        # above gates nothing. The count itself may move with layout
        # changes; only the floor is binding.
        "key": "table3_performance/repartition/repartition/gauge:rp_splits",
        "direction": "higher_is_better",
        "min": 1.0,
        "tolerance": 1.0,
    },
    {
        # Both budgets reach the same alias closure (#EA and flowsTo facts).
        "key": "table3_performance/repartition/repartition/gauge:rp_alias_edges_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Alias closure at 1 vs 4 join threads on hbase@0.3: the oracle's
        # memo is the only state the join shards share and cannot change an
        # answer, so the closure and the joins attempted are identical.
        "key": "table3_performance/join_parallel/join_parallel/gauge:jp_alias_edges_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table3_performance/join_parallel/join_parallel/gauge:jp_joins_equal",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Join-scan efficiency on hbase@0.3: adjacency entries the
        # label-indexed scan visited per join attempted. A work count, the
        # same on every machine and thread count, so the ceiling is the
        # measured value: visiting partners the grammar cannot combine
        # (the unindexed scan it replaced measured 73.5 here) trips it.
        "key": "table3_performance/join_parallel/join_parallel/gauge:jp_scan_visits_per_join",
        "direction": "lower_is_better",
        "max": 1.1893,
    },
    {
        # Alias-phase wall time at 1 thread over 4 threads. Only the floor
        # binds (more join threads must never be slower than one); the
        # speedup itself depends on the machine's free cores, and 4 join
        # threads cannot beat one on fewer than 4 cores, so the entry is
        # skipped there.
        "key": "table3_performance/join_parallel/join_parallel/gauge:jp_speedup",
        "direction": "higher_is_better",
        "min": 1.0,
        "tolerance": 1.0,
        "min_cores": 4,
    },
    {
        # Table 4's constraint lookups and memo hits, summed over the
        # presets, at one join thread. Exact work counts, pinned by equal
        # floor and ceiling (which re-baselining leaves alone): any change
        # in how often the oracle is asked, or how often the memo answers,
        # shows here. Gated only at scale 0.1, where they were counted.
        "key": "table4_caching/memo/table4/gauge:t4_lookups",
        "direction": "lower_is_better",
        "min": 4472.0,
        "max": 4472.0,
        "min_scale": 0.1,
        "max_scale": 0.1,
    },
    {
        "key": "table4_caching/memo/table4/gauge:t4_hits",
        "direction": "higher_is_better",
        "min": 1500.0,
        "max": 1500.0,
        "min_scale": 0.1,
        "max_scale": 0.1,
    },
    {
        # Of those hits, the joins the engine's merge memo answered before
        # the oracle (one join thread, so one shard: exact). The lookups and
        # hits above stay put whether the memo or the oracle answers a
        # repeat; this count shows how many repeats the memo takes.
        "key": "table4_caching/memo/table4/gauge:t4_memo_hits",
        "direction": "higher_is_better",
        "min": 830.0,
        "max": 830.0,
        "min_scale": 0.1,
        "max_scale": 0.1,
    },
    {
        # Warm throughput of the analysis service's two-tenant burst
        # (bench/service_bench.cpp). Wall-clock over loopback HTTP, so the
        # tolerance is wide; the floor catches the service falling back to
        # cold sessions (a warm check is >10x a cold one on any subject).
        "key": "service_bench/zookeeper/service/gauge:svc_checks_per_sec",
        "direction": "higher_is_better",
        "min": 1.0,
        "tolerance": 0.75,
    },
    {
        # Warm tail latency of the same burst. Baseline-relative only
        # (allow 2x jitter): the interesting regressions are order-of-
        # magnitude — a lost session cache or serialized admission.
        "key": "service_bench/zookeeper/service/gauge:svc_p99_ms",
        "direction": "lower_is_better",
        "tolerance": 1.0,
    },
    {
        # Share of /check requests served from a resident session during
        # the bench (2 colds + 24 warms => ~0.92). A collapse means the
        # cache is thrashing or fingerprinting broke.
        "key": "service_bench/zookeeper/service/gauge:svc_warm_hit_rate",
        "direction": "higher_is_better",
        "min": 0.5,
        "tolerance": 0.5,
    },
    {
        # Every service response body — cold, warm, either tenant — must be
        # byte-identical to the one-shot analyze_file --json aggregation,
        # at any scale.
        "key": "service_bench/zookeeper/service/gauge:svc_warm_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
]


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_bench: cannot read {path}: {err}")


def trajectory_gauges(trajectory):
    """Flattens a trajectory into {key: value} with keys
    <bench>/<subject>/<phase>/gauge:<name>."""
    if trajectory.get("schema") != TRAJECTORY_SCHEMA:
        sys.exit(
            f"check_bench: unexpected trajectory schema "
            f"{trajectory.get('schema')!r} (want {TRAJECTORY_SCHEMA!r})"
        )
    flat = {}
    for bench in trajectory.get("benches", []):
        bench_name = bench.get("bench", "?")
        for subject in bench.get("subjects", []):
            subject_name = subject.get("subject", "?")
            for phase in subject.get("phases", []):
                phase_name = phase.get("name", "?")
                gauges = phase.get("metrics", {}).get("gauges", {})
                for name, value in gauges.items():
                    key = f"{bench_name}/{subject_name}/{phase_name}/gauge:{name}"
                    flat[key] = float(value)
    return flat


def check(baseline, gauges, inject=None, scale=None, cores=None, only=None):
    if baseline.get("schema") != BASELINE_SCHEMA:
        sys.exit(
            f"check_bench: unexpected baseline schema "
            f"{baseline.get('schema')!r} (want {BASELINE_SCHEMA!r})"
        )
    default_tolerance = float(baseline.get("tolerance", 0.25))
    failures = []
    checked = 0
    for watch in baseline.get("watch", []):
        key = watch["key"]
        direction = watch.get("direction", "higher_is_better")
        tolerance = float(watch.get("tolerance", default_tolerance))
        if only is not None and only not in key:
            continue
        # Entries can declare the smallest GRAPPLE_SCALE at which they are
        # meaningful (e.g. wall-time fractions that fixed per-run costs
        # dominate at smoke scale); below it they are skipped, not failed.
        # Exact work counts that grow with the subjects declare max_scale
        # too, so they are gated only at the scale they were baselined at.
        # Speedups over several threads declare the cores they need.
        if scale is not None and scale < float(watch.get("min_scale", 0)):
            continue
        if scale is not None and scale > float(watch.get("max_scale", float("inf"))):
            continue
        if cores is not None and cores < int(watch.get("min_cores", 0)):
            continue
        if key not in gauges:
            failures.append(f"{key}: missing from trajectory (dropped metric)")
            continue
        value = gauges[key]
        if inject is not None:
            value = value / inject if direction == "higher_is_better" else value * inject
        checked += 1
        base = watch.get("value")
        if base is not None:
            base = float(base)
            if direction == "higher_is_better":
                limit = base * (1.0 - tolerance)
                ok = value >= limit
                relation = ">="
            else:
                limit = base * (1.0 + tolerance)
                ok = value <= limit
                relation = "<="
            if not ok:
                failures.append(
                    f"{key}: {value:.4g} violates {relation} {limit:.4g} "
                    f"(baseline {base:.4g}, tolerance {tolerance:.0%})"
                )
        if "min" in watch and value < float(watch["min"]):
            failures.append(f"{key}: {value:.4g} below hard floor {float(watch['min']):.4g}")
        if "max" in watch and value > float(watch["max"]):
            failures.append(f"{key}: {value:.4g} above hard ceiling {float(watch['max']):.4g}")
    return checked, failures


def write_baseline(path, trajectory, gauges):
    # Keep the curated watch list (and its directions/floors/tolerances)
    # when re-baselining; only the recorded values move.
    watch = DEFAULT_WATCH
    try:
        with open(path, "r", encoding="utf-8") as f:
            existing = json.load(f)
        if existing.get("schema") == BASELINE_SCHEMA and existing.get("watch"):
            watch = existing["watch"]
    except (OSError, json.JSONDecodeError):
        pass
    out_watch = []
    for entry in watch:
        entry = dict(entry)
        key = entry["key"]
        if key not in gauges:
            sys.exit(f"check_bench: watched key {key} absent from trajectory; not baselining")
        entry["value"] = round(gauges[key], 6)
        out_watch.append(entry)
    baseline = {
        "schema": BASELINE_SCHEMA,
        "git_sha": trajectory.get("git_sha", "unknown"),
        "scale": trajectory.get("scale", 1),
        "tolerance": 0.25,
        "watch": out_watch,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"check_bench: wrote baseline {path} ({len(out_watch)} watched gauges)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trajectory", help="BENCH_trajectory.json to check")
    parser.add_argument("--baseline", help="baseline JSON to compare against")
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write a baseline from the trajectory instead of checking",
    )
    parser.add_argument(
        "--inject-regression",
        type=float,
        metavar="FACTOR",
        help="self-test: degrade every watched value by FACTOR before checking",
    )
    parser.add_argument(
        "--only",
        metavar="SUBSTR",
        help="check only watch entries whose key contains SUBSTR "
        "(e.g. 'checkpointing' for the nightly full-scale gate)",
    )
    args = parser.parse_args()

    trajectory = load_json(args.trajectory)
    gauges = trajectory_gauges(trajectory)

    if args.write_baseline:
        write_baseline(args.write_baseline, trajectory, gauges)
        return

    if not args.baseline:
        parser.error("--baseline or --write-baseline is required")
    baseline = load_json(args.baseline)
    scale = trajectory.get("scale")
    cores = trajectory.get("cores")
    checked, failures = check(
        baseline,
        gauges,
        inject=args.inject_regression,
        scale=float(scale) if scale is not None else None,
        cores=int(cores) if cores is not None else None,
        only=args.only,
    )
    if failures:
        print(f"check_bench: FAIL ({len(failures)} of {checked + len(failures)} checks):")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print(f"check_bench: OK ({checked} watched gauges within tolerance)")


if __name__ == "__main__":
    main()
