#!/usr/bin/env python3
"""Build and run the campaign benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload comb_c1908 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/ on first
use, runs the benchmark binary, and prints its output. The last line of
stdout is the result object {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the Chrome trace-event file is written to
.bench_build/trace-<workload>-<seed>.json. Exits non-zero, without a
result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["comb_c1908", "seq_sclass", "shard_resume", "service_mix"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "scal_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "scal_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test hook: flip every reference digest")
    args = ap.parse_args()

    # Relative, so the daemon's Unix socket path stays short (sun_path
    # holds 108 bytes) however deep the checkout is.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--scratch", build_dir]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print(proc.stdout, end="", flush=True)


if __name__ == "__main__":
    main()
