#!/usr/bin/env python3
"""Self-tests of the benchmark: the unit tests of its percentile and
self-time math, then a one-second smoke of every workload, untraced
and traced, asserting that each emits exactly the metrics BENCHMARK.json
names, with their units, and that its output checks pass.

    python3 perfbench/selftest.py [--workloads frame-sim,sweep-cold]

Run from the repository root. Exit code 0 when everything passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check_result(spec, workload, trace, stdout, errors):
    lines = stdout.strip().splitlines()
    if not lines:
        errors.append(f"{workload} trace={trace}: no output")
        return
    res = json.loads(lines[-1])
    where = f"{workload} trace={trace}"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(res)}")
        return
    if res["correct"] is not True or res["failed"] != 0:
        errors.append(f"{where}: checks failed ({res['failed']} failed)")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        errors.append(f"{where}: attempted = {res['attempted']}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    if set(got) != set(want_units):
        errors.append(f"{where}: metrics differ: missing "
                      f"{sorted(set(want_units) - set(got))}, extra "
                      f"{sorted(set(got) - set(want_units))}")
    for name, unit in want_units.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} = {m}, want unit {unit}")
        elif not trace and m["value"] <= 0:
            errors.append(f"{where}: end-to-end {name} is {m['value']}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="frame-sim,sweep-cold,sweep-warm")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []

    build_dir = os.path.join(".bench_build", "perfbench")
    # run.py configures and builds perfbench; the unit tests are a
    # second target of the same build.
    smoke = [sys.executable, os.path.join(HERE, "run.py")]
    first = True
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            proc = subprocess.run(
                smoke + ["--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                errors.append(f"{workload} trace={trace}: exit {proc.returncode}")
            else:
                check_result(spec, workload, trace, proc.stdout, errors)
            print(f"selftest: {workload} trace={trace} done", file=sys.stderr)
            if first:
                first = False
                built = subprocess.run(
                    ["cmake", "--build", build_dir, "-j4", "--target",
                     "perfbench_tests"], stdout=sys.stderr)
                unit = subprocess.run(
                    [os.path.join(build_dir, "perfbench_tests")]
                    if built.returncode == 0 else ["false"])
                if unit.returncode != 0:
                    errors.append("unit tests failed")

    for e in errors:
        print(f"selftest: FAIL {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
