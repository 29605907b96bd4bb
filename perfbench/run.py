#!/usr/bin/env python3
"""Build and run the dds benchmark for one workload.

    python3 perfbench/run.py --workload adaptive-day --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
later runs reuse that build. The benchmark program prints its summary
and, as the last line, one JSON object; this script adds the
hostile-line probe (deep-nesting lines, each sent to its own
short-lived serve process) to the attempted and failed counts, and to
failed_ratio on the end-to-end pass, then prints the final JSON line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Nesting depths of the hostile lines: one that parsers reject cleanly
# today and two past the depth at which a recursive parser can exhaust
# an 8 MiB stack.
PROBE_DEPTHS = (10_000, 100_000, 400_000)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def probe(binary, depth):
    """True when a serve process answers one hostile line with one
    rejection record and exits cleanly."""
    line = "[" * depth + "\n"
    try:
        p = subprocess.run([binary, "--serve-child"], input=line.encode(),
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=60)
    except subprocess.TimeoutExpired:
        return False
    if p.returncode != 0:
        return False
    records = p.stdout.decode(errors="replace").splitlines()
    if len(records) != 1:
        return False
    try:
        rec = json.loads(records[0])
    except ValueError:
        return False
    return rec.get("rejected") is True and rec.get("index") == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = p.stdout.decode(errors="replace").splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        print(f"run.py: benchmark exited with {p.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    probe_failed = 0
    for depth in PROBE_DEPTHS:
        ok = probe(binary, depth)
        print(f"hostile probe depth {depth}: {'rejected' if ok else 'FAILED'}")
        probe_failed += 0 if ok else 1
    result["attempted"] += len(PROBE_DEPTHS)
    result["failed"] += probe_failed
    if args.trace == 0:
        result["metrics"]["failed_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
