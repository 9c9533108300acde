#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload transfer|build|openloop --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
libmachcont and the runner from source into .bench_build/perfbench
(Release); later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the runner's JSON result. Exits
non-zero without a result if the sources are missing, the build fails or
the runner runs past its time limit, and non-zero after a result with
"correct": false if a check failed.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175
REQUIRED = ("--workload", "--seed", "--seconds", "--trace")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no machcont sources under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main(argv):
    if any(flag not in argv for flag in REQUIRED):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    build()
    sys.stdout.flush()
    try:
        proc = subprocess.run([BINARY] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner ran past {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
