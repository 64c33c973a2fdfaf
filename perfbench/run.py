#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload bsp-fine --seed 1 --seconds 10 --trace 0

The Go toolchain's caches and the benchmark binary go to .bench_build/
under the repository root, so a run reads and writes only inside the
checkout. All arguments are passed to the benchmark binary; its last
line of output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def main():
    for sub in ("gocache", "gomodcache", "tmp"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    try:
        built = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, timeout=700)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
