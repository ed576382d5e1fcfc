"""Compare two result sets of the benchmark, one row per (metric, workload).

    python3 bench/compare.py .bench_out/ab/parent.jsonl .bench_out/ab/change.jsonl

Both files hold the lines ``run.py --record`` appends (``sweep.py`` writes
them). Runs are paired by (workload, seed). For each end-to-end metric of
BENCHMARK.json and each workload the verdict is:

* ``improved`` - the second set wins at least 9 of every 10 pairs (ties
  count for neither) and the medians differ by more than the first set's
  interquartile range;
* ``worse`` - otherwise, the second set's median is worse than the first's
  by more than the bound;
* ``unresolved`` - otherwise, the first set's interquartile range, as a
  share of its median, is wider than the metric's bound, and not every run
  of the second set reads better than every run of the first: within the
  bound, but the parent is too noisy to call it ``no worse``;
* ``no worse`` - within the bound otherwise.

Pairs whose output digests differ are listed, as are failed queries; a
speed-up that changes outputs is not a speed-up of the same program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[tuple[str, int], dict]:
    runs: dict[tuple[str, int], dict] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs[(rec["workload"], rec["seed"])] = rec
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> tuple[str, dict]:
    """Apply the pairwise rules to paired values a (first set) and b (second set)."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    q1, med_a, q3 = _quartiles(a)
    med_b = statistics.median(b)
    iqr = q3 - q1
    gain = sign * (med_a - med_b)
    stats = {"pairs": len(a), "wins": wins, "median_a": med_a, "median_b": med_b,
             "iqr_a": iqr, "change": (med_b - med_a) / med_a if med_a else float("nan")}
    if wins >= 0.9 * len(a) and gain > iqr:
        return "improved", stats
    if -gain > bound * abs(med_a):
        return "worse", stats
    every_better = all(sign * (x - y) > 0 for x in a for y in b)
    if med_a and iqr / abs(med_a) > bound and not every_better:
        return "unresolved", stats
    return "no worse", stats


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("first", help="result set of the parent (or the first run set)")
    p.add_argument("second", help="result set of the change (or the second run set)")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)

    with open(args.benchmark, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    first, second = load(args.first), load(args.second)
    keys = sorted(set(first) & set(second))
    if not keys:
        raise SystemExit("error: the two result sets share no (workload, seed) run")
    by_workload: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for key in keys:
        by_workload[key[0]].append(key)

    verdicts = []
    print(f"{'metric':14s} {'workload':11s} {'verdict':11s} {'pairs':>5s} {'wins':>4s} "
          f"{'median 1st':>12s} {'median 2nd':>12s} {'IQR 1st':>10s} {'change':>8s} {'bound':>6s}")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        for workload, wkeys in sorted(by_workload.items()):
            a = [first[k]["result"]["metrics"][name]["value"] for k in wkeys]
            b = [second[k]["result"]["metrics"][name]["value"] for k in wkeys]
            v, s = verdict(a, b, bound, metric["better"] == "lower")
            verdicts.append(v)
            print(f"{name:14s} {workload:11s} {v:11s} {s['pairs']:5d} {s['wins']:4d} {s['median_a']:12.6g} "
                  f"{s['median_b']:12.6g} {s['iqr_a']:10.4g} {s['change']:+8.2%} {bound:6.2f}")

    for key in keys:
        fa, fb = first[key], second[key]
        if fa["digest"] != fb["digest"]:
            print(f"outputs differ: {key[0]} seed {key[1]}")
        for side, rec in (("first", fa), ("second", fb)):
            res = rec["result"]
            if res["failed"] or not res["correct"]:
                print(f"{side} set {key[0]} seed {key[1]}: correct={res['correct']} "
                      f"failed {res['failed']} of {res['attempted']}")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
