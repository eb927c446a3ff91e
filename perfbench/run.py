#!/usr/bin/env python3
"""Build and run the mcsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (the
simulator library from src/ plus the driver) into .bench_build/perfbench,
then runs one workload. Build output goes to stderr; the benchmark's
result is the last line of stdout. Exits non-zero, printing no result,
when the simulator sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mcsim_perfbench")
# A run measures for --seconds; a pass that starts just before the
# deadline may overrun it. Past this the run is killed and fails.
RUN_TIMEOUT_S = 175


def step(cmd):
    """Run a build command with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        print("perfbench: command failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(proc.returncode or 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--target", "mcsim_perfbench", "-j", jobs])


def main():
    build()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
