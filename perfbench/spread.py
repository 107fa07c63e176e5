#!/usr/bin/env python3
"""Run-to-run spread of the benchmark over seeds.

    python3 perfbench/spread.py --workload enum --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed and prints, per metric, the median
and the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), next to the metric's
bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:28s} median {med:.5g}  spread {spread:.3f}  bound {bounds.get(k)}")


if __name__ == "__main__":
    main()
