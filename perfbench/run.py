#!/usr/bin/env python3
"""Builds the benchmark binary from source (Release, no google-benchmark)
and runs one workload.

    python3 perfbench/run.py --workload served_subset --seed 1 \
        --seconds 10 --trace 0 [--smoke]

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their spans to traces/ beside it. Everything but the binary's own
output goes to stderr, so the last line of stdout is the result object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("served_subset", "subset_large", "scan_exact", "ingest_churn")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("run.py: the library sources (CMakeLists.txt, src/) are not "
                 "beside perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for the benchmark's own test")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: build failed: {err}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(f"run.py: perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("run.py: perfbench printed no result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: malformed result object")


if __name__ == "__main__":
    main()
