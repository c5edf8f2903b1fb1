#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

Runs the benchmark once per seed (through run.py, so it builds first) and
prints, for every metric, the median of the runs and the distance between
the first and third quartile as a share of that median, computed with
statistics.quantiles(values, n=4). Each spread is compared with the bound
BENCHMARK.json gives the metric; "ok" means it is below a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seed_list(args.seeds):
        cmd = ["python3", os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if r.returncode != 0:
            print(f"seed {seed}: exit {r.returncode}", file=sys.stderr)
            return 1
        result = json.loads(r.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
        print(f"{name:40s} median {med:<14.6g} spread {spread:7.4f}"
              f" bound {bound if bound else '-':<5} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
