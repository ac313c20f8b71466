#!/usr/bin/env python3
"""Build and run the NetSolve benchmark.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later runs only rebuild what changed. Build output goes
to standard error, so the last line of standard output is the benchmark's JSON
result. With --trace 1 the traced pass's spans are written to
.bench_build/perfbench/spans-<workload>.tsv.

Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "netsolve_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    """Configure (once) and build the benchmark; build chatter goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "netsolve_perfbench"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rpc_small", "bulk_args", "dense_farm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD_DIR, "spans-%s.tsv" % args.workload)]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if result.returncode != 0:
        sys.exit("perfbench: benchmark exited with status %d" % result.returncode)


if __name__ == "__main__":
    main()
