#!/usr/bin/env python3
"""Build perf_baseline from this checkout, then run it.

Usage (from the repository root):

    python3 perf_baseline/run.py --workload advection_b8_r2 --seed 3 \
        --seconds 20 --trace 0

Every argument is passed to the perf_baseline binary unchanged (see
perf_baseline/README.md). The build goes to .bench_build/ at the
repository root: configured once, then brought up to date on every call,
with its output sent to stderr so that the binary's last stdout line
stays its JSON result. Exits non-zero without running anything when the
build fails, e.g. when the repository sources are not next to this
directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perf_baseline",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(3)


def main():
    build()
    binary = os.path.join(BUILD, "perf_baseline")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
