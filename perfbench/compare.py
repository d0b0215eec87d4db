#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each input is a JSON-lines file of run records as perfbench/run.py appends
them (--records; default .bench_build/records.jsonl). For every workload
and every metric of BENCHMARK.json the table shows each set's median and
quartiles over its runs. An end-to-end metric is "unresolved" when either
set's spread (interquartile range over median) exceeds the metric's bound;
otherwise it is "worse" when the new median is worse than the base median
by more than the bound, "better" when it is better by more than the bound,
and "same" in between. Per-layer metrics have no bound and get no verdict.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def stats(values):
    """(q1, median, q3, spread) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
    return q1, med, q3, spread


def collect(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r.get("workload") == workload and metric in r.get("metrics", {})]


def verdict(base, new, spec):
    bound = spec.get("bound")
    if bound is None:
        return ""
    if base[3] > bound or new[3] > bound:
        return "unresolved"
    if base[1] == 0:
        return "same"
    change = (new[1] - base[1]) / abs(base[1])
    if spec["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="JSON-lines record file of the base runs")
    parser.add_argument("new", help="JSON-lines record file of the new runs")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_runs(args.base), load_runs(args.new)]
    unresolved = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        rows = []
        for m in spec["end_to_end"] + spec["per_layer"]:
            summaries = []
            for runs in sets:
                values = collect(runs, workload, m["name"])
                summaries.append(stats(values) + (len(values),) if values else None)
            if all(s is None for s in summaries):
                continue
            cells = ["-" if s is None else f"{s[1]:.4g} [{s[0]:.4g}, {s[2]:.4g}] n={s[4]} spread {s[3]:.1%}"
                     for s in summaries]
            v = verdict(*summaries, m) if all(summaries) else ""
            unresolved += v == "unresolved"
            bound = f"±{m['bound']:.0%}" if "bound" in m else ""
            rows.append((m["name"], m["unit"], bound, *cells, v))
        if not rows:
            continue
        print(f"== {workload}")
        for row in rows:
            print("  " + "  |  ".join(str(c) for c in row))
    if unresolved:
        print(f"{unresolved} metric(s) unresolved: their spread exceeds the bound", file=sys.stderr)


if __name__ == "__main__":
    main()
