#!/usr/bin/env python3
"""Builds the whole-sort benchmark from the enclosing checkout and runs it.

    python3 perfbench/run.py --workload psrs-uniform --seed 1 --seconds 22 --trace 0

Every argument goes to the `wholesort` binary (see wholesort.cpp and
README.md).  The build lands in $CARGO_TARGET_DIR, or .bench_build at the
checkout root; build output goes to stderr, so the last stdout line is the
binary's JSON result.  Exits non-zero, without a result, when the build
fails, for instance outside a checkout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets=("wholesort",)):
    """Configures (once) and builds; returns the build directory or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j3", "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out


def main(argv):
    out = build()
    if out is None:
        return 1
    try:
        proc = subprocess.run([os.path.join(out, "wholesort"), *argv],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: wholesort timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
