#!/usr/bin/env python3
"""Run perfbench repeatedly and report each end-to-end metric's spread.

Run from the repository root:

    python3 perfbench/steadiness.py --workloads search-scan,import --seeds 1-10
    python3 perfbench/steadiness.py --workloads write-mixed --seeds 7x10,8

A seed list is comma-separated; "a-b" is a range and "sx10" repeats seed s
ten times. For every workload and metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the spread (Q3-Q1)/median
and the metric's bound from BENCHMARK.json, and marks spreads above a
third of the bound. Per-run result lines go to --log as JSON lines.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "x" in part:
            s, n = part.split("x")
            seeds += [int(s)] * int(n)
        elif "-" in part:
            a, b = part.split("-")
            seeds += list(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=".bench_build/steadiness.jsonl")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    cmd = bench["command"]

    ok = True
    with open(args.log, "a") as log:
        for wl in args.workloads.split(","):
            values = {}
            for seed in parse_seeds(args.seeds):
                start = time.time()
                p = subprocess.run(cmd + ["--workload", wl, "--seed", str(seed),
                                          "--seconds", seconds, "--trace", args.trace],
                                   capture_output=True, text=True)
                wall = time.time() - start
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                    ok = False
                    continue
                res = json.loads(lines[-1])
                log.write(json.dumps({"workload": wl, "seed": seed, "trace": args.trace,
                                      "wall_s": wall, "result": res}) + "\n")
                log.flush()
                if not res["correct"] or res["failed"]:
                    ok = False
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{wl} seed {seed}: {wall:.1f}s correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
            for name in sorted(values):
                v = values[name]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and spread > bound / 3:
                    flag = "  <-- above bound/3"
                print(f"{wl:14s} {name:22s} n={len(v):2d} median={med:12.5g} "
                      f"q1={q1:12.5g} q3={q3:12.5g} spread={spread:7.4f} bound={bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
