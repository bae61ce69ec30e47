#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report the spread of every metric.

  python3 perfbench/sweep.py [--seeds 1-10] [--workloads a,b] [--traced]
                             [--seconds S] [--out PATH]

Runs perfbench/run.py once per (seed, workload), one process per run, with
the workloads alternating inside each seed, so a slow spell of the host
lands on every workload rather than on one. With --traced each workload
also gets one traced run. For every end-to-end metric it prints the median
of the per-run values, the quartiles, and the spread (third minus first
quartile, as statistics.quantiles(values, n=4) gives them) as a share of
the median next to the metric's bound from BENCHMARK.json. --out writes
every run's result, raw samples and the machine descriptor as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("sweep: %s seed %d trace %d failed" % (workload, seed, trace))
    record = {"workload": workload, "seed": seed, "trace": trace,
              "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        for key in ("samples", "machine"):
            if line.startswith(key + ": "):
                record[key] = json.loads(line[len(key) + 2:])
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    records = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            records.append(run(workload, seed, seconds, 0))
            print("%-18s seed %-3d %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in
                 records[-1]["result"]["metrics"].items()})), flush=True)
    if args.traced:
        for workload in workloads:
            records.append(run(workload, parse_seeds(args.seeds)[0], seconds,
                               1))

    worst = 0.0
    print("\n%-18s %-22s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload in workloads:
        runs = [r for r in records
                if r["workload"] == workload and r["trace"] == 0]
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median, 0, median))
            spread = (q3 - q1) / median
            flag = "" if spread < metric["bound"] / 3 else "  <-- over 1/3"
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print("%-18s %-22s %14.6g %14.6g %14.6g %8.4f %6.3f%s" % (
                workload, metric["name"], median, q1, q3, spread,
                metric["bound"], flag))
    print("\nworst spread / bound (setup_s excluded): %.3f" % worst)
    if args.out:
        with open(args.out, "w") as out:
            json.dump(records, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
