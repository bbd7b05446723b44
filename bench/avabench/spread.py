#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json the way the driver does, several times
per workload with a different --seed each time, and prints for every
end-to-end metric the distance between the first and third quartile of its
values (statistics.quantiles(values, n=4)) as a share of their median, next
to the metric's bound. A benchmark is steady enough when every spread
except that of setup_s is below a third of its bound.

Run from the root of the repository:

    python3 bench/avabench/spread.py [--runs 10] [--first-seed 1]
                                     [--workloads a,b] [--json FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(manifest, workload, seed, trace):
    args = manifest["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload} seed {seed}: unexpected keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return result["metrics"], time.time() - started


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--json", help="write every measured value here")
    opts = parser.parse_args()
    if opts.runs < 2:
        sys.exit("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    wanted = [w for w in opts.workloads.split(",") if w]
    workloads = [w["name"] for w in manifest["workloads"] if not wanted or w["name"] in wanted]
    end_to_end = manifest["end_to_end"]
    per_layer = {m["name"] for m in manifest["per_layer"]}

    record = {}
    wide = 0
    for workload in workloads:
        layers, took = run_once(manifest, workload, opts.first_seed, 1)
        missing = per_layer - set(layers)
        if missing or set(layers) - per_layer:
            sys.exit(f"{workload}: traced run reports the wrong metrics: {sorted(missing)}")
        print(f"# {workload}: traced run ok, {len(layers)} per-layer metrics, {took:.1f} s")

        values = {m["name"]: [] for m in end_to_end}
        for i in range(opts.runs):
            metrics, took = run_once(manifest, workload, opts.first_seed + i, 0)
            if set(metrics) != set(values):
                sys.exit(f"{workload}: untraced run reports the wrong metrics")
            for name, m in metrics.items():
                if not m["value"] > 0:
                    sys.exit(f"{workload}/{name}: value {m['value']} is not positive")
                values[name].append(m["value"])
            print(f"# {workload}: run {i + 1}/{opts.runs} took {took:.1f} s", flush=True)
        record[workload] = values

        print(f"{'workload':<16} {'metric':<20} {'median':>14} {'spread':>8} {'bound':>7}")
        for m in end_to_end:
            vs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median
            if m["name"] == "setup_s":
                note = ""
            elif spread > m["bound"]:
                note = "  EXCEEDS THE BOUND"
                wide += 1
            elif spread > m["bound"] / 3:
                note = "  above a third of the bound"
            else:
                note = ""
            print(f"{workload:<16} {m['name']:<20} {median:>14.6g} "
                  f"{spread * 100:>7.2f}% {m['bound'] * 100:>6.0f}%{note}")

    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(1 if wide else 0)


if __name__ == "__main__":
    main()
