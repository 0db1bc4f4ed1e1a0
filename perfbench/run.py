#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, print one JSON line.

    python3 perfbench/run.py --workload pay_open --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
`perfbench` binary and `tinyevm_hubd` (Release) from this source tree into
`.bench_build/perfbench/`; later runs rebuild incrementally. Build output
goes to stderr; the last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set, and the traced run also writes a Chrome trace
to `.bench_build/perfbench/runs/`. Workloads, metrics and the layer map are
described in perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("pay_open", "session_churn", "corpus_deploy")
# A run of the binary that takes longer than this has hung; it fails.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the two targets; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "Makefile").exists() and not (BUILD / "build.ninja").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "tinyevm_hubd", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                return False
    return True


def metric_specs(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """The result object must carry exactly the declared metrics and units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys"
    want = metric_specs(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"{name} has no numeric value"
    return None


def check_trace(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return f"trace {path} does not load: {e}"
    if not events:
        return f"trace {path} is empty"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own self-tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    binary = BUILD / "perfbench"
    hubd = BUILD / "tinyevm" / "tools" / "tinyevm_hubd"
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"]).returncode

    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--hubd", str(hubd), "--work-dir", str(runs)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench failed (exit {proc.returncode})")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench's last line is not JSON")
        return 1
    problem = check_result(result, args.trace == 1)
    if problem is None and args.trace == 1:
        problem = check_trace(runs / f"trace-{args.workload}-{args.seed}.json")
    if problem is not None:
        log(problem)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
