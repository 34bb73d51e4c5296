#!/usr/bin/env python3
"""Steadiness check of the host-time benchmark.

Runs two sets of runs of one build, each run as long as BENCHMARK.json's
run_seconds, alternating which set goes first. Set A uses seeds 1..runs,
set B seeds 1001..1000+runs. For every end-to-end metric of every
workload it prints the median, the quartiles and the spread (quartile
distance over median) of each set, then whether the two sets agree
within the metric's bound from BENCHMARK.json:

  - each set's spread is within the bound;
  - neither set's median is worse than the other's by more than the bound;
  - the share of failed ops is the same in both sets.

Usage, from the root of a checkout:

  python3 hostbench/steady.py                      # every workload, 10 runs a set
  python3 hostbench/steady.py --workloads serve-tcp --runs 5

Exit code 0 when every workload agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


SEED_B = 1000


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    p = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"steady: {' '.join(argv)} exited {p.returncode}\n{p.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, other):
    """How much worse [other] is than [base], as a share of [base]."""
    if metric["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def compare(bench, workload, sets):
    ok = True
    print(f"\n== {workload}: {len(sets['A'])} runs per set")
    print(f"{'metric':<14}{'bound':>7} | {'A median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>8} | {'B median':>11}{'q1':>11}{'q3':>11}{'spread':>8}"
          f" | {'B worse':>8}{'A worse':>8}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sa = summary([r["metrics"][name]["value"] for r in sets["A"]])
        sb = summary([r["metrics"][name]["value"] for r in sets["B"]])
        b_worse = worse_by(m, sa[0], sb[0])
        a_worse = worse_by(m, sb[0], sa[0])
        spread_ok = sa[3] <= bound and sb[3] <= bound
        agree = spread_ok and b_worse <= bound and a_worse <= bound
        ok &= agree
        print(f"{name:<14}{bound:>7.2f} | {sa[0]:>11.5g}{sa[1]:>11.5g}"
              f"{sa[2]:>11.5g}{sa[3]:>8.3f} | {sb[0]:>11.5g}{sb[1]:>11.5g}"
              f"{sb[2]:>11.5g}{sb[3]:>8.3f} | {b_worse:>+8.3f}{a_worse:>+8.3f}"
              f"  {'agree' if agree else 'DISAGREE'}")
    shares = {}
    for s, runs in sets.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        shares[s] = [r["failed"] / r["attempted"] for r in runs]
        correct = all(r["correct"] for r in runs)
        print(f"set {s}: {attempted} ops attempted, {failed} failed, "
              f"all correct: {correct}")
        ok &= correct
    same_share = len(set(shares["A"] + shares["B"])) == 1
    ok &= same_share
    print(f"failed share identical in every run: {same_share}")
    return ok


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names),
                    help="comma-separated")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    args = ap.parse_args()
    command = bench["command"]
    # build once, outside any measured run
    subprocess.run(command + ["--selftest"], cwd=ROOT, check=True)
    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for s in order:
                seed = 1 + i + (SEED_B if s == "B" else 0)
                r = run_once(command, workload, seed, bench["run_seconds"])
                sets[s].append(r)
                print(f"{workload} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                    file=sys.stderr, flush=True)
        ok &= compare(bench, workload, sets)
    print("\nsteady: " + ("every workload agrees" if ok else "DISAGREEMENT"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
