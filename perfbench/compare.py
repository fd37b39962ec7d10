#!/usr/bin/env python3
"""Compare two result sets of perfbench/run.py.

    python3 perfbench/compare.py BASE/results.jsonl CHANGE/results.jsonl

For each workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles and a verdict, by the first rule that applies:

- unresolved: fewer than ten pairs (runs with the same seed on both sides);
- better: the change wins at least nine tenths of the pairs, ties counting
  for neither, the medians differ by more than the distance between the
  base's quartiles, and no more of the change's operations failed than the
  base's, neither in number nor as a share of those attempted;
- unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every run of the change reads
  better than every run of the base;
- worse: the change's median is worse than the base's by more than the bound;
- no worse: otherwise.

It refuses to compare results whose kernel backends differ, reports
failed/attempted per side and flags a workload where the change failed more,
and checks that work counts of runs with the same seed are identical.
Traced runs get a per-layer table of medians, without verdicts.  Exit code:
0, or 1 when any verdict is "worse" or any workload is flagged for failures,
or 2 on bad input.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    """(base value, change value) for runs with the same seed, in run order."""
    by_seed = defaultdict(list)
    for seed, v in base:
        by_seed[seed].append(v)
    out = []
    for seed, v in change:
        if by_seed[seed]:
            out.append((by_seed[seed].pop(0), v))
    return out


def verdict(base, change, better, bound, more_failures=False):
    """Verdict for one metric; `base`/`change` are lists of (seed, value)."""
    a = [v for _, v in base]
    b = [v for _, v in change]
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else float("inf")
    spread_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else float("inf")
    matched = pairs(base, change)
    wins = sum(1 for x, y in matched if sign * (y - x) > 0)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    gain = sign * (qb[1] - qa[1])
    if len(matched) < MIN_PAIRS:
        word = "unresolved"
    elif wins >= WIN_SHARE * len(matched) and gain > qa[2] - qa[0] and not more_failures:
        word = "better"
    elif max(spread_a, spread_b) > bound and not all_better:
        word = "unresolved"
    elif -gain > bound * abs(qa[1]):
        word = "worse"
    else:
        word = "no worse"
    return word, qa, qb, spread_a, spread_b, wins, len(matched)


def group(records):
    out = defaultdict(list)
    for r in records:
        out[(r["workload"], r["trace"])].append(r)
    return out


def check_counts(base, change, key):
    """(shared seeds, seeds whose work counts differ) between the two sides."""
    first = {}
    for r in base:
        first.setdefault(r["seed"], r.get(key))
    shared, diffs = set(), []
    for r in change:
        if r["seed"] in first:
            shared.add(r["seed"])
            if first[r["seed"]] != r.get(key):
                diffs.append(r["seed"])
    return shared, diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    try:
        spec = json.loads(BENCHMARK.read_text())
        base, change = load(args.base), load(args.change)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    backends = {r["env"]["backend"] for r in base} | {r["env"]["backend"] for r in change}
    if len(backends) > 1:
        print(f"compare: refusing to compare kernel backends {sorted(backends)}; "
              "they produce different bits", file=sys.stderr)
        return 2
    for key in ("python", "numpy", "scipy", "nproc"):
        seen = {str(r["env"][key]) for r in base + change}
        if len(seen) > 1:
            print(f"note: {key} differs between runs: {sorted(seen)}")

    gb, gc = group(base), group(change)
    any_worse = False
    for (workload, trace) in sorted(set(gb) & set(gc)):
        rb, rc = gb[(workload, trace)], gc[(workload, trace)]
        fb, ab = sum(r["failed"] for r in rb), sum(r["attempted"] for r in rb)
        fc, ac = sum(r["failed"] for r in rc), sum(r["attempted"] for r in rc)
        more_failures = fc > fb or fc * ab > fb * ac
        print(f"\n== {workload} (trace {trace}): {len(rb)} vs {len(rc)} runs, "
              f"failed/attempted {fb}/{ab} vs {fc}/{ac}")
        if more_failures:
            any_worse = True
            print("FLAG: the change failed more operations than the base; no gain is credited")
        key = "work_first_traced_pass" if trace else "work_first_pass"
        shared, diffs = check_counts(rb, rc, key)
        if not shared:
            print("work counts: no seed run on both sides")
        else:
            print(f"work counts: {'identical' if not diffs else f'differ for seeds {diffs}'} "
                  f"over {len(shared)} shared seeds")
        if trace:
            names = sorted(set(rb[0]["metrics"]) & set(rc[0]["metrics"]))
            for name in names:
                a = statistics.median(r["metrics"][name]["value"] for r in rb)
                c = statistics.median(r["metrics"][name]["value"] for r in rc)
                if a != c:
                    print(f"  {name:48s} {a:14.6g} -> {c:14.6g} {rb[0]['metrics'][name]['unit']}")
            continue
        print(f"  {'metric':12s} {'base q1 / median / q3':>34s}   {'change q1 / median / q3':>34s}"
              "  spread b/c   wins  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [(r["seed"], r["metrics"][name]["value"]) for r in rb if name in r["metrics"]]
            c = [(r["seed"], r["metrics"][name]["value"]) for r in rc if name in r["metrics"]]
            if not a or not c:
                continue
            word, qa, qc, sa, sc, wins, n = verdict(a, c, m["better"], m["bound"], more_failures)
            any_worse |= word == "worse"
            print(f"  {name:12s} {qa[0]:10.4g} / {qa[1]:10.4g} / {qa[2]:10.4g}   "
                  f"{qc[0]:10.4g} / {qc[1]:10.4g} / {qc[2]:10.4g}  {sa:5.3f}/{sc:5.3f}  "
                  f"{wins:2d}/{n:<2d}  {word}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
