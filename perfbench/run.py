#!/usr/bin/env python3
"""Build and run the dyndisp benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of churn-10k, replay-static, ring-worst, sweep. The first run
configures and builds perfbench/ (the library from src/ plus the perfbench
and perfbench_allocs binaries) in $CARGO_TARGET_DIR, default .bench_build;
later runs rebuild only what changed. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. The exit code is the binary's: 0 only when every
correctness gate passed.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("churn-10k", "replay-static", "ring-worst", "sweep")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "perfbench_allocs", "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--sweep-spec", os.path.join(HERE, "sweep.json"),
               "--work-dir", os.path.join(build_dir, "perfbench-work")]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        return child.wait()
    except BaseException:
        child.terminate()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
