#!/usr/bin/env python3
"""Compare bench_e2e result files of a parent and a change (advisory).

    python3 bench_e2e/compare.py --parent DIR_OR_FILES... --change DIR_OR_FILES...

Inputs are the result files bench_e2e writes to its --out directory (run.py:
.bench_build/results), from interleaved runs: parent, change, parent, ...
Files pair up per workload in start order. Prints one row per workload x
end-to-end metric with a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  same        neither, with the parent's spread inside the bound;
  unresolved  the parent's own spread is wider than the bound, and not
              every change run reads better than every parent run.

Always exits 0: on a shared machine the verdict informs a reviewer, it does
not gate a build.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    """workload -> list of untraced result dicts, in start order."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".json")]
        else:
            files.append(p)
    runs = {}
    for f in files:
        try:
            with open(f) as fh:
                r = json.load(fh)
        except (OSError, ValueError):
            continue
        if r.get("bench") != "bench_e2e" or r.get("trace"):
            continue
        runs.setdefault(r["workload"], []).append((r.get("started_utc", ""), f, r))
    return {w: [r for _, _, r in sorted(v)] for w, v in runs.items()}


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, higher, bound):
    def better(a, b):  # a reads better than b
        return a > b if higher else a < b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    mp, mc = statistics.median(parent), statistics.median(change)
    iqr = quartile_spread(parent)
    worse_by = (mp - mc) / mp if higher else (mc - mp) / mp
    if mp != 0 and iqr / abs(mp) > bound:
        all_better = all(better(c, p) for c in change for p in parent)
        return ("better" if all_better else "unresolved"), wins, len(pairs), mp, mc
    if worse_by > bound:
        return "worse", wins, len(pairs), mp, mc
    if wins >= 0.9 * len(pairs) and abs(mc - mp) > iqr and better(mc, mp):
        return "better", wins, len(pairs), mp, mc
    return "same", wins, len(pairs), mp, mc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    print("%-18s %-17s %14s %14s %8s %6s  %s" %
          ("workload", "metric", "parent_med", "change_med", "delta", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload][:n] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[workload][:n] if name in r["metrics"]]
            if not p or len(p) != len(c):
                continue
            v, wins, pairs, mp, mc = verdict(p, c, m["better"] == "higher", m["bound"])
            delta = (mc - mp) / mp * 100 if mp else 0.0
            print("%-18s %-17s %14.6g %14.6g %+7.2f%% %3d/%-2d  %s" %
                  (workload, name, mp, mc, delta, wins, pairs, v))
        if n < 10:
            print("%-18s (%d pairs; the rule for 'better' wants at least 10)" % (workload, n))
    for w in sorted(set(parent) ^ set(change)):
        print("%-18s only on one side; not compared" % w, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
