#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, next to its bound.

    python3 benchmark/stability.py [--sets 1|2]

Runs benchmark/run.py --trace 0 ten times on every workload of
BENCHMARK.json, on seeds 1 to 10, for the run length given there, from the
root of a checkout, one run at a time.  For each metric it prints the
median, the first and third quartile (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json.  With --sets 2 it makes a second set on seeds 11 to 20,
shows the larger of the two spreads, and also prints how far the second
median moved in the worse direction, as a share of the first, and whether
the share of failed operations is the same.  A spread or a move over the
bound is flagged OVER.  It also prints the mean and longest wall time of a
run.  The full result is written to .bench_out/stability.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RUNS = 10   # runs per workload and set


def one_run(workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: outputs are not correct" % (workload, seed))
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    report = {}
    ok = True
    for wl in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(RUNS):
                seed = 1 + k * RUNS + i
                runs.append(one_run(wl, seed, seconds))
                print("  %s seed %d done" % (wl, seed), file=sys.stderr)
            sets.append(runs)
        print("%s (%d runs x %d sets, %ds each)" % (wl, RUNS, args.sets, seconds))
        print("  %-18s %12s %12s %12s %8s %7s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "drift"))
        report[wl] = {}
        for name, b in bounds.items():
            stats = [summarise([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            first = stats[0]
            line = "  %-18s %12.6g %12.6g %12.6g %8.4f %7.3f" % (
                name, first["median"], first["q1"], first["q3"],
                max(s["spread"] for s in stats), b["bound"])
            flag = any(s["spread"] > b["bound"] for s in stats)
            if len(stats) == 2:
                a, c = first["median"], stats[1]["median"]
                drift = (c - a) / a if b["better"] == "lower" else (a - c) / a
                line += " %8.4f" % drift
                flag = flag or drift > b["bound"]
            print(line + ("  OVER" if flag else ""))
            ok = ok and not flag
            report[wl][name] = stats
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        walls = [r["wall_s"] for runs in sets for r in runs]
        print("  failed share: %s; wall time per run: mean %.1f s, max %.1f s"
              % (sorted(shares), statistics.mean(walls), max(walls)))
        ok = ok and len(shares) == 1
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "stability.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
