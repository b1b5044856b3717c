#!/usr/bin/env python3
"""Build and run the g80sim benchmark.

usage: python3 g80bench/run.py --workload <matmul512|checked|suite13|serve_mix>
                               --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds g80bench/ (the library
under src/ plus the benchmark program in this directory) as a Release build
in .bench_build/, then runs one workload.  Build output goes to stderr; the
program's stdout passes through, and its last line is the result JSON.
Result files and chrome traces land in .bench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the library sources (src/) are missing")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    build()
    cmd = [os.path.join(BUILD, "g80bench")] + sys.argv[1:] + [
        "--out-dir", ".bench_out"]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
