#!/usr/bin/env python3
"""Run the BENCHMARK.json command for every declared workload and check the
driver contract on each run: exit status 0, and a last stdout line that
parses as JSON with failed == 0 and every end-to-end metric present.

This is the benchmark's own command at full scale (multi-MiB buffers), not
`--smoke`: `Scale::Test` payloads are a few KiB and never exercise the bulk
data path.

Usage: python3 ci/check_bench_contract.py [--seed N] [--seconds S]
"""

import argparse
import json
import math
import subprocess
import sys


def check(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    print("$ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return problems + [f"last stdout line is not JSON ({e})"]
    if doc.get("failed") != 0:
        problems.append(f"failed = {doc.get('failed')} of {doc.get('attempted')}")
    metrics = doc.get("metrics", {})
    for metric in bench["end_to_end"]:
        value = metrics.get(metric["name"], {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"end-to-end metric {metric['name']} missing or not finite")
    summary = ", ".join(
        f"{m['name']}={metrics[m['name']]['value']:.4g}"
        for m in bench["end_to_end"]
        if m["name"] in metrics
    )
    print(f"{workload}: failed={doc.get('failed')} {summary}", flush=True)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", default="BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    with open(args.manifest) as f:
        bench = json.load(f)
    status = 0
    for workload in bench["workloads"]:
        for problem in check(bench, workload["name"], args.seed, args.seconds):
            print(f"::error::{workload['name']}: {problem}", flush=True)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
