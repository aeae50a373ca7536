#!/usr/bin/env python3
"""Builds and runs the TokenMagic end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ingest|select_wide|serve \
        --seed N --seconds S --trace 0|1

The first call configures and builds `tm_perfbench` (perfbench/CMakeLists.txt,
Release) into .bench_build/tm_perfbench; later calls rebuild incrementally.
Build output goes to stderr. tm_perfbench's stdout is passed through: its
last line is the JSON result object. The exit code is tm_perfbench's, or 2
when the checkout has no TokenMagic sources or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tm_perfbench")
BINARY = os.path.join(BUILD_DIR, "tm_perfbench")


def build():
    """Configures (once) and builds tm_perfbench; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no TokenMagic sources under %s/src; run from the "
              "root of a full checkout" % ROOT, file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tm_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "select_wide", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", type=int, choices=[0, 1], default=0,
                        help="fixed small work for the determinism test")
    args = parser.parse_args()

    if not build():
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--small", str(args.small), "--socket-dir",
               os.path.relpath(BUILD_DIR, ROOT)]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
