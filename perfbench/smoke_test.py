#!/usr/bin/env python3
"""The benchmark's own test: runs every workload run.py knows (those of
BENCHMARK.json and ingest_churn, which is runnable but not in it) in
smoke mode (reduced sizes, one second each), untraced and traced, on two
seeds, and asserts that each run prints every metric BENCHMARK.json names
for its mode with the right unit, passes every check, fails no operation,
and writes its spans when traced.

    python3 perfbench/smoke_test.py      # from the root of a checkout
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)

sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return proc.stdout, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            for trace in (0, 1):
                tag = f"{workload} seed={seed} trace={trace}"
                stdout, err = run(workload, seed, trace)
                if err:
                    failures.append(f"{tag}: {err}")
                    continue
                result = json.loads(stdout.strip().splitlines()[-1])
                problems = []
                if result["correct"] is not True:
                    problems.append("checks failed")
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"attempted={result['attempted']} "
                                    f"failed={result['failed']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"metrics differ from BENCHMARK.json: {got}")
                if not any(l.startswith("host {") for l in stdout.splitlines()):
                    problems.append("no host record")
                if trace and not any(l.startswith("spans ")
                                     for l in stdout.splitlines()):
                    problems.append("no spans written")
                print(f"{'FAIL' if problems else 'ok  '} {tag}", flush=True)
                failures += [f"{tag}: {p}" for p in problems]
    for f in failures:
        print(f"FAIL {f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
