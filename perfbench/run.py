#!/usr/bin/env python3
"""Build the hipo_perfbench binary from this checkout's sources and run it.

    python3 perfbench/run.py --workload cold_city --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The binary is built in Release mode under
$CARGO_TARGET_DIR (default .bench_build)/perfbench; the build output goes to
stderr so the last line of stdout is the binary's JSON result. Every
argument is passed through to the binary (see perfbench/main.cpp).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build; returns the binary's path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "hipo_perfbench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(build_dir(), "traces")]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
