#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b]
                                [--out results.json] [--load results.json]

Runs every workload (untraced) once per seed through run.py and prints, per
workload and end-to-end metric, the median of the runs and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. `--out`
keeps the raw results; `--load` re-reports saved ones without running.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("%s seed %d exited %d: %s" % (workload, seed,
                                               proc.returncode,
                                               proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out")
    ap.add_argument("--load")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    if a.load:
        with open(a.load) as f:
            results = json.load(f)
    else:
        results = {}
        for w in names:
            for seed in seeds_of(a.seeds):
                r = run_once(w, seed, spec["run_seconds"])
                results.setdefault(w, []).append(r)
                print("%s seed %d: correct=%s %s" % (
                    w, seed, r["correct"],
                    {k: round(v["value"], 4)
                     for k, v in r["metrics"].items()}), flush=True)
        if a.out:
            with open(a.out, "w") as f:
                json.dump(results, f)
    worst = 0.0
    for w, runs in results.items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("%-12s %-12s median %12.4f  spread %6.3f  bound %.2f%s" % (
                w, m["name"], med, spread, m["bound"],
                "  OVER A THIRD" if spread > m["bound"] / 3 else ""))
        print("%-12s all correct: %s" % (w, all(r["correct"] for r in runs)))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
