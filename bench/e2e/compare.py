#!/usr/bin/env python3
"""Compares bench_e2e result sets under the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py BASE NEW          # verdict per workload x metric
    python3 bench/e2e/compare.py RUNS              # spread of one set
    python3 bench/e2e/compare.py RUNS --annotate   # ... and store it in RUNS

BASE, NEW and RUNS are results files written by run.py, or directories of
them; all runs of a workload in a set are pooled. For every workload and
end-to-end metric the comparison prints each side's median and quartiles
(statistics.quantiles, n=4) and a verdict:

  better / worse  the median moved by more than the metric's bound
  same            it moved by less
  unresolved      a side's spread, (q3 - q1) / median, exceeds the bound,
                  and neither side's runs all beat the other's

The exit code is 1 when any verdict is worse. With one set, the spread of
every metric is printed next to its bound and a third of it (the target a
steady benchmark should meet); the exit code is 1 when a spread exceeds its
bound.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as f:
            runs.extend(json.load(f)["runs"])
    return runs


def values_by_workload(runs, metric):
    out = {}
    for run in runs:
        got = run["e2e"].get(metric)
        if got is not None:
            out.setdefault(run["workload"], []).append(got["value"])
    return out


def summary(values):
    """(median, q1, q3, spread) of a sample."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def verdict(metric, base, new):
    """Verdict for one workload x metric; base/new are lists of values."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    bm, _, _, bs = summary(base)
    nm, _, _, ns = summary(new)
    # Positive = NEW is worse than BASE by that share of BASE's median.
    worse_by = (nm - bm) / bm if bm else 0.0
    if not lower:
        worse_by = -worse_by
    new_wins = max(new) < min(base) if lower else min(new) > max(base)
    new_loses = min(new) > max(base) if lower else max(new) < min(base)
    if max(bs, ns) > bound:
        if new_wins:
            return "better", worse_by
        if new_loses:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(bench, base_runs, new_runs):
    print(f"{'workload':8} {'metric':26} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict")
    worst = 0
    for metric in bench["end_to_end"]:
        base = values_by_workload(base_runs, metric["name"])
        new = values_by_workload(new_runs, metric["name"])
        for workload in sorted(set(base) & set(new)):
            v, worse_by = verdict(metric, base[workload], new[workload])
            bm, bq1, bq3, _ = summary(base[workload])
            nm, nq1, nq3, _ = summary(new[workload])
            print(f"{workload:8} {metric['name']:26} "
                  f"{bm:12.5g} [{bq1:9.5g}, {bq3:9.5g}] "
                  f"{nm:12.5g} [{nq1:9.5g}, {nq3:9.5g}] "
                  f"{worse_by:+9.2%} {metric['bound']:6.2f}  {v}")
            worst = max(worst, v == "worse")
    return worst


def spread_table(bench, runs):
    table = {}
    failing = False
    print(f"{'workload':8} {'metric':26} {'runs':>4} {'median':>12} "
          f"{'spread':>8} {'bound':>6} {'bound/3':>8}")
    for metric in bench["end_to_end"]:
        for workload, values in sorted(values_by_workload(runs, metric["name"]).items()):
            median, q1, q3, spread = summary(values)
            bound = metric["bound"]
            flag = "" if spread <= bound / 3 else (
                "  > bound/3" if spread <= bound else "  > BOUND")
            failing = failing or spread > bound
            print(f"{workload:8} {metric['name']:26} {len(values):4d} {median:12.5g} "
                  f"{spread:8.2%} {bound:6.2f} {bound / 3:8.3f}{flag}")
            table.setdefault(workload, {})[metric["name"]] = {
                "runs": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound}
    return table, failing


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="results file or directory")
    parser.add_argument("new", nargs="?", help="results file or directory")
    parser.add_argument("--annotate", action="store_true",
                        help="one set: store the spread table in the file "
                             "under \"calibration\"")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)

    if args.new is not None:
        return compare(bench, load_runs(args.base), load_runs(args.new))

    table, failing = spread_table(bench, load_runs(args.base))
    if args.annotate:
        with open(args.base) as f:
            results = json.load(f)
        results["calibration"] = table
        with open(args.base, "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
