#!/usr/bin/env python3
"""Builds the CPR benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dc-fleet|fattree-sym|cprd-lineage \
        --seed <n> --seconds <s> --trace 0|1

The build goes to $CARGO_TARGET_DIR/cmake (default .bench_build/cmake) and is
incremental; build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero without a result when the sources
are missing or do not build.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "cpr_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "cpr_perfbench")


def main():
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "cmake"))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: benchmark build failed: {error}", file=sys.stderr)
        return 1
    env = dict(os.environ, CPR_PERFBENCH_WORKDIR=os.path.join(out_dir, "work"))
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
