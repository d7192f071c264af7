#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: solo_stream, join_q8 (see BENCHMARK.json for why
each was chosen), or `all` to run them in turn.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics;
each run ends with a line holding one JSON object. The benchmark program
is built from source with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, on first use; build output goes to standard
error. The exit code is the program's: non-zero when any output mismatched
its reference, any operation failed, or the build failed.
"""

import fcntl
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    source_dir = os.path.join(root, "perfbench")
    binary = os.path.join(build_dir, "gcx_perfbench")
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return None
    return binary


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        at = args.index("--workload") + 1
        runs = [args[:at] + [name] + args[at + 1:] for name in names]
    status = 0
    for run_args in runs:
        sys.stdout.flush()
        try:
            done = subprocess.run([binary] + run_args, cwd=root,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
