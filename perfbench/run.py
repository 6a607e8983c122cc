#!/usr/bin/env python3
"""Build and run the mcsn serving benchmark.

    python3 perfbench/run.py --workload batch_10x8 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is always the benchmark's own JSON result. Every other argument is
passed to the benchmark binary unchanged (see README.md for the flags).

Exits non-zero without printing a result when the library sources are
missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mcsn", "mcsn.hpp")):
        print("run.py: mcsn sources not found under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("run.py: build step failed: %s" % err, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
