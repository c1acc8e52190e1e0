#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

Runs every workload in two alternating sets (A and B) of N runs each, every
run with its own seed, and prints per end-to-end metric each set's median
and quartiles, the spread (interquartile distance over the median) and
whether the sets agree within the bound BENCHMARK.json gives the metric.
This is the evidence behind the bounds; rerun it on any machine:

    python3 perfbench/steady.py --runs 10 --out steady.json

Set A uses seeds 1..N and set B seeds N+1..2N; run i of the two sets goes
A-then-B for even i and B-then-A for odd i. Exit status 0 when, for every
workload and metric, both sets' spreads and the change between their
medians (either way) are within the bound, and the failed-operation share
is the same in both sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def load_spec():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.splitlines()
    # Exit 1 still carries a result (failed operations are counted there).
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("steady.py: %s seed %d produced no result (exit %d)"
                 % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def change(med_a, med_b):
    """Relative change of the median from set A to set B."""
    return (med_b - med_a) / med_a if med_a else 0.0


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", help="write every run's result here (JSON)")
    args = p.parse_args()
    if args.runs < 2:
        sys.exit("steady.py: --runs must be at least 2")

    raw = {}
    for w in [w["name"] for w in spec["workloads"]]:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = 1 + i + (0 if s == "A" else args.runs)
                result = run_once(w, seed, args.seconds)
                result["seed"] = seed
                sets[s].append(result)
                print("%s set %s seed %d: %s" % (w, s, seed, json.dumps(
                    {k: v["value"] for k, v in result["metrics"].items()})),
                      flush=True)
        raw[w] = sets
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)

    all_ok = True
    print("\n%-14s %-16s %-36s %-36s %8s %6s %s" % (
        "workload", "metric", "A: median [q1, q3] spread",
        "B: median [q1, q3] spread", "B vs A", "bound", "ok"))
    for w, sets in raw.items():
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for s, rs in sets.items()}
        if shares["A"] != shares["B"]:
            all_ok = False
            print("%s: failed share differs: A %r, B %r" % (w, shares["A"],
                                                           shares["B"]))
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
            med_a, q1_a, q3_a, spread_a = summary(a)
            med_b, q1_b, q3_b, spread_b = summary(b)
            delta = change(med_a, med_b)
            ok = max(abs(delta), spread_a, spread_b) <= m["bound"]
            all_ok = all_ok and ok
            cell = "%.5g [%.5g, %.5g] %.2f%%"
            print("%-14s %-16s %-36s %-36s %7.2f%% %5.0f%% %s" % (
                w, m["name"], cell % (med_a, q1_a, q3_a, 100 * spread_a),
                cell % (med_b, q1_b, q3_b, 100 * spread_b), 100 * delta,
                100 * m["bound"], "yes" if ok else "NO"))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
