#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload frame-sim|sweep-cold|sweep-warm \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator library, dtexld and
the benchmark program from source (Release) into .bench_build/ on first
use, then runs it. The last line of standard output is the program's
result object; everything else (build output, progress) goes
to standard error, apart from one provenance line on standard output.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("frame-sim", "sweep-cold", "sweep-warm")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build perfbench (and dtexld, its dependency)."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    out = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if out.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(build_dir)

    # Relative paths keep dtexld's socket path short whatever the
    # checkout's location (sun_path holds 107 bytes).
    run_dir = os.path.join(".bench_build", "run", args.workload)
    program = os.path.join(build_dir, "perfbench")
    proc = subprocess.run(
        [program, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--run-dir", run_dir],
        stdout=subprocess.PIPE, text=True)
    # Keep the span file; drop daemon state and scratch.
    if os.path.isdir(run_dir):
        for name in os.listdir(run_dir):
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
