#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload of it.

    python3 perfbench/run.py --workload grid_serial --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own helper tests

Run from the repository root. The Release build lives in
.bench_build/perfbench; the first run configures and compiles it (about a
minute on 4 cores), later runs only check that it is up to date. Build
output goes to stderr, so the last line of stdout is the result JSON.
Exits non-zero, without a result, when the program's sources are missing
or the build fails, and non-zero after printing the result when any check
failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["grid_serial", "grid_fanout", "serve_point", "serve_bulk"]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the program's sources (src/) are not in this checkout")
    jobs = str(os.cpu_count() or 1)
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        tmp = os.path.join(BUILD_ROOT, "test_tmp") + os.sep
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TEST_TMPDIR=tmp)
        sys.exit(subprocess.run([test], env=env).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    work_dir = os.path.join(BUILD_ROOT, "work", "%s_seed%d" % (args.workload, args.seed))
    shutil.rmtree(work_dir, ignore_errors=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--golden", os.path.join(HERE, "golden", "digests.txt"),
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is not None:
        # The benchmark's metric list is BENCHMARK.json; they must agree.
        expected = declared_metrics(args.trace)
        if sorted(result["metrics"]) != sorted(expected):
            print("run.py: metrics %s differ from BENCHMARK.json %s"
                  % (sorted(result["metrics"]), sorted(expected)), file=sys.stderr)
            result["correct"] = False
            lines[-1] = json.dumps(result)
            proc.returncode = proc.returncode or 1
    sys.stdout.write("\n".join(lines) + "\n")
    # Leave the trace files, remove the rest of the work dir.
    if os.path.isdir(work_dir):
        for name in os.listdir(work_dir):
            path = os.path.join(work_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
