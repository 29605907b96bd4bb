#!/usr/bin/env python3
"""Run each workload on several seeds and print each metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--trace 0|1]
                                    [--same-seed]

Run from the repository root. For every metric it prints the median,
the spread (first-to-third quartile distance over the median, from
statistics.quantiles(values, n=4)) and, for end-to-end metrics, the
bound from BENCHMARK.json and whether the spread stays under a third of
it. With --same-seed every run uses --first-seed, so the spread is host
noise alone; without it, it also holds seed-to-seed variation of the job
set. The exit code is 1 when any run fails or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--same-seed", action="store_true",
                    help="repeat --first-seed instead of seeds N..N+runs-1")
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        samples = {}
        units = {}
        walls = []
        for k in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else k)
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL)
            walls.append(time.monotonic() - start)
            lines = p.stdout.decode().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {p.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false")
                status = 1
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {workload}: {args.runs} runs, wall {min(walls):.1f}"
              f"-{max(walls):.1f} s per run")
        for name, values in samples.items():
            if len(values) < 4:
                continue
            s = spread(values)
            line = (f"  {name:38s} median {statistics.median(values):12.6g}"
                    f" {units[name]:6s} spread {s:7.3f}")
            if name in bounds:
                ok = s < bounds[name] / 3 or name == "setup_s"
                line += f"  bound {bounds[name]:.2f} {'ok' if ok else 'WIDE'}"
            print(line, flush=True)
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in values))
    return status


if __name__ == "__main__":
    sys.exit(main())
