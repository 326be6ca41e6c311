#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark binary is built from
source (perfbench/CMakeLists.txt compiles ../src) into the directory
named by CARGO_TARGET_DIR, default .bench_build, which also receives
the per-run result records and span logs.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; its metric names are checked against BENCHMARK.json first.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference", "digests.txt")


def build(build_dir):
    """Configure once, then build incrementally; logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--reference", REFERENCE, "--out", out_dir],
        stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        print(f"perfbench: exited with status {run.returncode}",
              file=sys.stderr)
        return run.returncode

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    names = [(name, m["unit"]) for name, m in result["metrics"].items()]
    expected = expected_metrics(args.trace)
    if names != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: metrics {names} do not match BENCHMARK.json "
              f"{expected}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
