#!/usr/bin/env python3
"""Build and run the end-to-end OLAP benchmark.

Run from the repository root:

    python3 olapbench/run.py --workload mem|paged|service --seed N \
        --seconds S --trace 0|1

The first call configures and builds olapbench/ (the engine sources under
src/ plus olap_bench.cc) in .bench_build/olapbench; later calls rebuild only
what changed. Build output goes to stderr. The stdout of olap_bench passes
through unchanged, so its result object stays the last line, and its exit
code is returned. Its scratch files (the paged workload's block file, trace
spans) go to .bench_build/olapbench-work.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "olapbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "olapbench-work")
BINARY = os.path.join(BUILD_DIR, "olap_bench")
# BENCHMARK.json lists paged and service only; see README.md for why mem is
# left out of it.
WORKLOADS = ["mem", "paged", "service"]


def build():
    """Configures (once) and builds olap_bench; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = os.path.join(BUILD_DIR, "tmp")  # compiler temporaries stay in the checkout
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "olap_bench"],
                   check=True, stdout=sys.stderr, env=env)


def git_sha():
    """HEAD of the repository this checkout is, or "unknown" when it is none
    (a repository enclosing the checkout does not count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
