#!/usr/bin/env python3
"""Builds the rtbench benchmark from source, then runs it.

Usage, from the repository root:

  python3 rtbench/run.py --workload accept_churn --seed 1 --seconds 20 --trace 0

--workload is accept_churn, echo_keepalive, web_static, or all (every
workload in turn). A single-workload run's last stdout line is its result
JSON; the exit code is 0 only when every reply and ledger check passed.
The build lives in .bench_build/rtbench, which also receives the traced
run's spans.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["accept_churn", "echo_keepalive", "web_static"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "rtbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rtbench")
BINARY = os.path.join(BUILD_DIR, "rtbench")
# Beyond its measured windows, a run spends a few seconds on warm-up, cold
# starts and, when traced, the layer-call pass and the spans file.
RUN_MARGIN_S = 60


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "rt", "runtime.h")):
        print("rtbench: no runtime sources under %s/src" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rtbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("rtbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_one(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", BUILD_DIR]
    # One measured window, and a second, traced one with --trace 1.
    timeout = args.seconds * (1 + args.trace) + RUN_MARGIN_S
    try:
        sys.stdout.flush()
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("rtbench: %s run exceeded %.0f s" % (workload, timeout), file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        if run_one(workload, args) != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
