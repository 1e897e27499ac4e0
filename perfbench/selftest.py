#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny scale.

    python3 perfbench/selftest.py

Builds the binary like run.py, then checks that
  * every workload runs correctly with --trace 0 and --trace 1 and prints,
    as its last stdout line, exactly the metrics BENCHMARK.json names for
    that mode, each with the unit BENCHMARK.json gives it;
  * a placement corrupted by the benchmark's own code (--corrupt) is caught:
    the run reports correct=false and counts the failure.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)


def result(binary, trace_dir, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), "--tiny", "--trace-dir", trace_dir]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (
            " ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    problems = []
    trace_dir = os.path.join(run.build_dir(), "selftest-traces")
    for w in spec["workloads"]:
        name = w["name"]
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            r = result(binary, trace_dir, name, trace)
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (name, sorted(r)))
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%s trace=%d: not correct: %s" % (
                    name, trace, {k: r[k] for k in r if k != "metrics"}))
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics differ: missing %s,"
                                " extra %s, units %s" % (
                                    name, trace,
                                    sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    {k: (got[k], want[k]) for k in got
                                     if k in want and got[k] != want[k]}))
            if trace == 0:
                zero = [k for k, v in r["metrics"].items()
                        if not v["value"]]
                if zero:
                    problems.append("%s: zero end-to-end metrics %s" % (
                        name, zero))
        bad = result(binary, trace_dir, name, 0, "--corrupt")
        if bad["correct"] or bad["failed"] < 1:
            problems.append("%s: corrupted placement not caught: %s" % (
                name, {k: bad[k] for k in bad if k != "metrics"}))
        print("selftest: %s checked" % name, flush=True)
    for p in problems:
        print("selftest: FAIL: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
