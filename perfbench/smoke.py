#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, small inputs, both modes.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json with --smoke for one second,
untraced and traced, and checks that it exits 0, that its ops all
pass their checks, and that its last output line is the JSON result
carrying exactly the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json names, each a finite number with its unit.
Run from the repository root; exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return f"{where}: exit code {out.returncode}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"{where}: ops failed: {result}"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return f"{where}: metrics differ: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not math.isfinite(value):
            return f"{where}: bad {name}: {metrics[name]}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, metrics in modes.items():
            error = check(w["name"], trace, {m["name"]: m["unit"] for m in metrics})
            if error:
                print("FAIL " + error)
                return 1
            print(f"ok   {w['name']} --trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
