#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --test                # the benchmark's own tests

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench; later calls rebuild only what changed. The
benchmark's report goes to stdout and its last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit status is nonzero
when the build fails, an output oracle fails, or the run does not finish.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["kv-read-hot", "kv-write-churn", "kv-scan-mix", "guest-config"]
RUN_TIMEOUT_S = 170


def build(target):
    """Configure and build `target`; all tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", target, "-j", jobs]]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return True


def run_workload(args, workload):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if r.returncode != 0 or not result.get("correct"):
        print(f"perfbench: {workload} failed its output checks "
              f"(exit {r.returncode})", file=sys.stderr)
        return r.returncode or 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if args.test:
        if not build("perfbench_tests"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not args.workload:
        p.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    if not build("perfbench"):
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = run_workload(args, name) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
