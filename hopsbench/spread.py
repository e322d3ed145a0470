#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 hopsbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0]

Run it from the repository root. For every workload it runs
hopsbench/run.py once per seed and prints, per metric, the median and the
quartile spread (Q3 - Q1 of the runs, as statistics.quantiles gives them,
over the median) next to the metric's bound in BENCHMARK.json. A spread at
or above a third of its bound is flagged. It also prints each run's wall
time. --out writes every run's JSON result to a file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]

    results = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            good = proc.returncode == 0 and result and result["correct"]
            ok = ok and bool(good)
            print(f"{w} seed {seed}: exit {proc.returncode}, "
                  f"correct {result and result['correct']}, "
                  f"{wall:.1f} s wall", flush=True)
            if result:
                runs.append(result)
        results[w] = runs
        if len(runs) < 4:
            continue
        print(f"\n{w}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and \
                    spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                ok = False
            print(f"  {name:38s} median {med:14.6g}  spread {spread:8.4f}"
                  f"  bound {bound}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
