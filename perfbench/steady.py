#!/usr/bin/env python3
"""Steadiness check for perfbench: runs each workload with several seeds and
prints, for every end-to-end metric, the median over the runs and the spread
(distance between the first and third quartile, as statistics.quantiles(n=4)
gives them, over the median) of the reported values, of the drift-corrected
ones and of the raw (uncorrected) ones, with each metric's bound from
BENCHMARK.json. Run i uses seed i.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 20 decide-elim optimize-dp
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = ["bash", "perfbench/run.sh"]


def run_once(workload, seed, seconds):
    start = time.monotonic()
    out = subprocess.run(
        BENCH + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    wall = time.monotonic() - start
    result = json.loads(out[-1])
    sets = {tag: next(json.loads(l[len(tag) + 3:]) for l in out if l.startswith("# %s " % tag))
            for tag in ("corrected", "raw")}
    return result, sets, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    for w in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            res, sets, wall = run_once(w, seed, args.seconds)
            runs.append((res, sets, wall))
            print("%s seed=%d attempted=%d failed=%d correct=%s solve_s=%.6g wall=%.1fs" % (
                w, seed, res["attempted"], res["failed"], res["correct"],
                res["metrics"]["solve_s"]["value"], wall), file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r, _, _ in runs})
        walls = [wall for _, _, wall in runs]
        print("\n== %s: %d runs, failed share %s, wall per run %.1f-%.1f s" % (
            w, len(runs), shares, min(walls), max(walls)))
        print("%-16s %14s %9s %9s %9s %7s" % ("metric", "median", "spread", "corrected", "raw", "bound"))
        for name in sorted(runs[0][0]["metrics"]):
            med, s_rep = spread([r["metrics"][name]["value"] for r, _, _ in runs])
            _, s_cor = spread([sets["corrected"][name]["value"] for _, sets, _ in runs])
            _, s_raw = spread([sets["raw"][name]["value"] for _, sets, _ in runs])
            print("%-16s %14.6g %9.4f %9.4f %9.4f %7s" % (name, med, s_rep, s_cor, s_raw, bounds[name]))


if __name__ == "__main__":
    main()
