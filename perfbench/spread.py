#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs each workload once per seed (untraced), one run at a time, and
prints for every end-to-end metric its median, its quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread is
marked "ok" when it is below a third of the metric's bound in
BENCHMARK.json; setup_s is only reported.  Run from the repository
root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    """Seeds from numbers and ranges: "1-10", "3,3,3", "1-5,101"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: ops failed: {result}")
    host = [l.split()[1] for l in lines if l.startswith("host.ref_ms")]
    return result, host[0] if host else "?"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds_of(args.seeds):
            result, host = run_once(workload, seed, args.seconds)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: host.ref_ms={host} ops="
                  f"{result['attempted']} " + " ".join(
                      f"{n}={v[-1]:.4g}" for n, v in values.items()),
                  flush=True)
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            verdict = ("-" if m["name"] == "setup_s"
                       else "ok" if spread < m["bound"] / 3 else "WIDE")
            print(f"  {workload:14s} {m['name']:24s} median {med:10.4g} "
                  f"q1 {q1:10.4g} q3 {q3:10.4g} spread {spread:7.2%} "
                  f"bound {m['bound']:.2f} {verdict}", flush=True)


if __name__ == "__main__":
    main()
