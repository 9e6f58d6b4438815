#!/usr/bin/env python3
"""A/B verdicts for end-to-end metrics from paired benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_OUTPUT CHANGE_OUTPUT

Each file holds the standard output of untraced ``run.py`` runs of one
commit (any mix of workloads, ``--all`` output included). The i-th run
of a workload in one file pairs with its i-th run in the other, and the
two runs of a pair must have the same seed and time budget (exit 2
otherwise). Run the pairs alternating which side goes first, at least
10 pairs per workload. For every workload and end-to-end metric this
prints each side's median and quartiles, the change's win fraction and
a verdict:

* regressed, for every metric of the workload: a change run failed a
  check (a cell raised or its output was wrong). No speed-up counts
  while the change gets cells wrong.
* improved: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ, in the better direction, by
  more than the parent's inter-quartile range;
* regressed: the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json (a share of the parent's
  median);
* unresolved: fewer than 10 pairs, or either side's inter-quartile
  range exceeds the bound, unless every change run beats every parent
  run;
* unchanged: otherwise.

Exits 1 if any verdict is "regressed".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """Untraced run records of one file, grouped by workload, in order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if (isinstance(record, dict) and record.get("record") == "e2e-run"
                and not record.get("trace")):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """(verdict, wins) for paired samples of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", wins
    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    q1_p, q3_p = quartiles(parent)
    q1_c, q3_c = quartiles(change)
    if wins >= WIN_SHARE * len(pairs) and sign * (mid_c - mid_p) > q3_p - q1_p:
        return "improved", wins
    if sign * (mid_p - mid_c) > bound * abs(mid_p):
        return "regressed", wins
    spread = max((q3_p - q1_p) / abs(mid_p), (q3_c - q1_c) / abs(mid_c))
    all_better = (min(sign * c for c in change)
                  > max(sign * p for p in parent))
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    for name in parent_runs.keys() & change_runs.keys():
        for p, c in zip(parent_runs[name], change_runs[name]):
            for key in ("seed", "seconds"):
                if p.get(key) != c.get(key):
                    print(f"{name}: a pair has {key} {p.get(key)} (parent) "
                          f"against {c.get(key)} (change); pair runs of "
                          f"equal seed and budget", file=sys.stderr)
                    return 2
    regressed = False
    print(f"{'workload':<16} {'metric':<15} {'parent med [q1, q3]':>34} "
          f"{'change med [q1, q3]':>34} {'wins':>7}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        pairs = min(len(parent_runs.get(name, [])),
                    len(change_runs.get(name, [])))
        if not pairs:
            print(f"{name:<16} no paired runs")
            continue
        parent = parent_runs[name][:pairs]
        change = change_runs[name][:pairs]
        first = sum(1 for p, c in zip(parent, change)
                    if p["started_at"] < c["started_at"])
        failed = [sum(1 for r in side if r["failures"])
                  for side in (parent, change)]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [r["metrics"][key] for r in parent]
            c = [r["metrics"][key] for r in change]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            if failed[1]:
                result = "regressed"
            regressed |= result == "regressed"
            cols = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cols.append(f"{statistics.median(values):.5g} "
                            f"[{q1:.5g}, {q3:.5g}]")
            print(f"{name:<16} {key:<15} {cols[0]:>34} {cols[1]:>34} "
                  f"{wins:>3}/{pairs:<3}  {result}")
        if any(failed):
            print(f"{name:<16} failed checks in {failed[0]} parent and "
                  f"{failed[1]} change runs of {pairs}")
        if abs(2 * first - pairs) > 1:
            print(f"{name:<16} note: the parent ran first in {first} of "
                  f"{pairs} pairs; alternate the order")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
