#!/usr/bin/env python3
"""Builds and runs the yardstick benchmark, then checks its result line.

Usage (from the repository root):

    python3 yardstick/run.py --workload batch-inmem --seed 1 --seconds 20 --trace 0

Builds Grapple from ../src together with the benchmark runner (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints the
runner's ledger followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The run fails (non-zero exit, no result line)
when a GRAPPLE_* override is set, the build or the runner fails, any output
check fails or the run is invalid (`correct` false), or a metric named in
BENCHMARK.json is missing or carries the wrong unit.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-inmem", "batch-spill", "service-warm")
RUN_TIMEOUT_S = 160
# Deleting a run's thousands of small files slows file creation for seconds
# afterwards (trims on the virtual disk); the next run must not start inside
# that shadow.
SETTLE_S = 5


def fail(message):
    print(f"yardstick: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the runner; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"Grapple sources not found under {ROOT / 'src'}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "yardstick"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "yardstick"])
    for step in steps:
        # Build chatter goes to stderr so the result stays the last stdout line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "yardstick"


def self_check(result, spec, trace):
    """Every metric BENCHMARK.json names for this mode, with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    problems = []
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{metric['name']} not emitted")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} has unit {got.get('unit')!r}, "
                            f"BENCHMARK.json says {metric['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{metric['name']} has no finite value")
    if problems:
        fail("self-check failed: " + "; ".join(problems))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    overrides = sorted(name for name in os.environ if name.startswith("GRAPPLE_"))
    if overrides:
        fail(f"GrappleEnvOverride: {', '.join(overrides)} set; GRAPPLE_* variables override "
             "session and engine options, so this run would measure a different program")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())

    binary = build()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work), "--out", str(out)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, TMPDIR=str(work)), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
        time.sleep(SETTLE_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"runner exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.stdout.write(proc.stdout)
        fail(f"outputs incorrect: {result.get('failed')} of {result.get('attempted')} "
             "operations failed")
    self_check(result, spec, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
