#!/usr/bin/env python3
"""Run one benchmark workload repeatedly and print each metric's spread.

    python3 perfbench/steady.py --workload engine-pushpull --runs 10

Run it from the root of a checkout. Each run is untraced, uses the next
seed (from --seed0 on) and the run length of BENCHMARK.json. For every
metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the interquartile range as a share of
the median, next to the metric's bound in BENCHMARK.json, so steadiness
can be shown, and checked again on another machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit("run with seed %d exited with code %d" % (seed, proc.returncode))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print("seed %d: attempted %d failed %d correct %s" %
              (seed, res["attempted"], res["failed"], res["correct"]), flush=True)

    print("%-26s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-26s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, med, q1, q3, spread, "" if bound is None else bound))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s" % sorted(shares))


if __name__ == "__main__":
    main()
