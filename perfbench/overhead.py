#!/usr/bin/env python3
"""Tracing overhead per workload: the traced run's own end-to-end numbers
(trace.*) against the untraced run of the same seed.

    python3 perfbench/overhead.py [--seed N] [--seconds S]

Builds the binary like run.py, runs every workload in BENCHMARK.json once
with --trace 0 and once with --trace 1, and prints one row per workload.
The traced loop gets half of --seconds on cold_city and serve_hits (the
layer replay gets the rest), so its sample counts are smaller.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)


def metrics(binary, workload, seed, seconds, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--trace-dir",
         os.path.join(run.build_dir(), "traces")],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in r["metrics"].items()}, r["correct"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    print("%-12s %12s %12s %9s %12s %12s %9s" % (
        "workload", "p50_ms", "trace.p50", "overhead", "tail_ms",
        "trace.tail", "overhead"))
    for w in spec["workloads"]:
        plain, ok0 = metrics(binary, w["name"], a.seed, a.seconds, 0)
        traced, ok1 = metrics(binary, w["name"], a.seed, a.seconds, 1)
        print("%-12s %12.3f %12.3f %8.1f%% %12.3f %12.3f %8.1f%%%s" % (
            w["name"], plain["p50_ms"], traced["trace.p50_ms"],
            100 * (traced["trace.p50_ms"] / plain["p50_ms"] - 1),
            plain["tail_ms"], traced["trace.tail_ms"],
            100 * (traced["trace.tail_ms"] / plain["tail_ms"] - 1),
            "" if ok0 and ok1 else "  (a run was not correct)"), flush=True)


if __name__ == "__main__":
    main()
