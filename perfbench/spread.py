#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median of the runs and the distance between the
first and third quartile as a share of that median, next to a third of
the metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --seeds 10 [--workload lr-stream ...]

Each run builds nothing new once the first has built the binary.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(spec["command"], w, seed, spec["run_seconds"], 0)
            if not r["correct"] or r["failed"]:
                print(f"{w} seed {seed}: {r['failed']} of {r['attempted']} failed")
                ok = False
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
        print(f"{w}:")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3
            flag = "" if spread < limit or name == "setup_s" else "  <-- above a third of the bound"
            print(f"  {name:14s} median {med:12.6g}  spread {spread:6.3f}  (bound/3 {limit:.3f}){flag}")
            if args.raw:
                print("      " + " ".join(f"{v:.5g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
