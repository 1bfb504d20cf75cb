#!/usr/bin/env python3
"""Builds the compiler and the benchmark harness from source, then runs one
workload of the repository benchmark.

    python3 perfbench/run.py --workload suite_verify --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`) under the current directory; its output goes to stderr. The
harness prints a human-readable report and, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}. This script checks
that the metric names are exactly the ones BENCHMARK.json declares for the
mode (end_to_end for --trace 0, per_layer for --trace 1) before printing that
line, and exits non-zero without a result on any build or harness failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    make = ["cmake", "--build", build_dir, "--target", "slpbench", "slpc",
            "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = declared_metrics(args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)

    tools = os.path.join(build_dir, "tools")
    command = [os.path.join(build_dir, "slpbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--slpc", os.path.join(tools, "slpc"),
               "--work-root", os.path.join(build_dir, "runs")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"harness printed no result line (status {proc.returncode})")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or a unit differs")
    # A failed output check still prints its result (correct: false) and
    # keeps the harness's non-zero status.
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
