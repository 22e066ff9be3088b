#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload join-med --seed 1 --seconds 30 --trace 0

The benchmark program (perfbench/src, built by perfbench/CMakeLists.txt
together with the library sources under src/) is compiled into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is the benchmark program's (0 when every call and output
check passed), or 2 when the program cannot be built. WORKLOADS.md
describes the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("join-med", "serve-sharded", "ingest-wal")
# The benchmark program stops after --seconds plus its set-up and checks;
# this only guards against a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark program; returns its path or
    None."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure,
                    ["cmake", "--build", build_dir, "--target", "perfbench",
                     "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.join(ROOT, target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out_dir", os.path.join(ROOT, ".bench_out"),
               "--revision", revision()]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark program timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
