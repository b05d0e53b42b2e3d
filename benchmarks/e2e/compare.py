"""``run.py --compare PARENT.jsonl CHANGE.jsonl``: judge a change against
its parent from two run sets recorded with ``--record``.

Run the two commits as alternating pairs (parent, change, change, parent,
...) with identical benchmark code and settings; each file then holds the
runs of one side in pair order.  One row is printed per end-to-end metric
x workload:

- ``regression``  the change's median is worse than the parent's by more
                  than the metric's bound (exit code 1);
- ``unresolved``  the parent's own inter-quartile distance is wider than
                  the bound, so "no worse" cannot be shown;
- ``gain``        at least ten pairs, the change wins at least nine tenths
                  of them (ties count for neither side), and the medians
                  differ by more than the parent's inter-quartile distance;
- ``same``        none of the above: within the bound.

A larger ``failed_share`` on any workload is a regression whatever the
timings say.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from e2e import metrics as m

MIN_PAIRS = 10


def load(path: str):
    """(values[(workload, metric)] in run order, failed/attempted per
    workload) from the untraced records of one run set."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    fails: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            w = rec["workload"]
            fails[w][0] += rec["failed"]
            fails[w][1] += rec["attempted"]
            for name, entry in rec["metrics"].items():
                if entry["value"] is not None:
                    values[w, name].append(entry["value"])
    return values, fails


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def judge(parent: List[float], change: List[float], better: str,
          bound: float) -> Tuple[str, float, float, int, int]:
    """(verdict, relative change of the median with worse > 0, parent
    spread as a share of its median, wins, pairs)."""
    p_q1, _p_med, p_q3 = quartiles(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c_med - p_med) / abs(p_med)
    spread = (p_q3 - p_q1) / abs(p_med)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if worse > bound:
        verdict = "regression"
    elif spread > bound:
        verdict = "unresolved"
    elif (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
          and abs(c_med - p_med) > (p_q3 - p_q1)):
        verdict = "gain"
    else:
        verdict = "same"
    return verdict, worse, spread, wins, len(pairs)


def main(parent_path: str, change_path: str) -> int:
    parent, p_fail = load(parent_path)
    change, c_fail = load(change_path)
    bad = 0
    print(f"{'workload':14s} {'metric':22s} {'parent':>12s} {'change':>12s} "
          f"{'worse':>8s} {'bound':>6s} {'spread':>7s} {'wins':>7s}  verdict")
    for workload, _why in m.WORKLOADS:
        for name, _unit, better, bound in m.END_TO_END:
            p, c = parent.get((workload, name)), change.get((workload, name))
            if not p or not c:
                print(f"{workload:14s} {name:22s} {'-':>12s} {'-':>12s} "
                      f"{'':8s} {bound:6.2f} {'':7s} {'':7s}  missing")
                bad += 1
                continue
            verdict, worse, spread, wins, pairs = judge(p, c, better, bound)
            bad += verdict == "regression"
            print(f"{workload:14s} {name:22s} {statistics.median(p):12.5g} "
                  f"{statistics.median(c):12.5g} {worse:+8.1%} {bound:6.2f} "
                  f"{spread:7.1%} {wins:3d}/{pairs:<3d}  {verdict}")
        pf, pa = p_fail.get(workload, [0, 0])
        cf, ca = c_fail.get(workload, [0, 0])
        p_share, c_share = pf / max(1, pa), cf / max(1, ca)
        verdict = "regression" if c_share > p_share else "same"
        bad += verdict == "regression"
        print(f"{workload:14s} {'failed_share':22s} {p_share:12.5g} "
              f"{c_share:12.5g} {'':8s} {0:6.2f} {'':7s} {'':7s}  {verdict}")
    print(f"{bad} regression(s)")
    return 1 if bad else 0
