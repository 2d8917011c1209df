"""Compare two sets of benchmark records: a parent commit and a change.

Usage, from the root of a checkout:

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends. Records are grouped
by workload and trace mode, and the i-th parent record of a group is
paired with the i-th change record, so run the two commits alternately
(parent first in one pair, change first in the next) with the same list
of seeds. For every workload and metric the tool prints each side's
median and quartiles over runs, the ratio change/parent with the parent
median as its base, and a verdict:

- ``probes_total``, ``max_gap_probes`` and ``peak_cells`` repeat exactly for
  a seed, so they are compared pair by pair: ``same``, ``lower`` or
  ``higher``.
- Otherwise the change is ``better`` when it wins at least 9 of every 10
  pairs (ties count for neither side) and the medians differ by more than
  the parent's interquartile distance. It is ``worse`` when its median is
  worse than the parent's by more than the metric's bound in
  ``BENCHMARK.json``. Where either side's spread exceeds the bound it is
  ``unresolved``, unless every change run reads better than every parent
  run. Anything else is ``within bound``. Per-layer metrics have no bound:
  they are ``better``, ``worse`` (the same rule with sides swapped) or
  ``no clear change``.

Exit code 1 if any verdict is ``worse``, ``higher`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("probes_total", "max_gap_probes", "peak_cells")
BAD = ("worse", "higher", "unresolved")


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups[rec["workload"], rec["trace"]].append(rec)
    return groups


def _wins(a: list[float], b: list[float], sign: int) -> int:
    """Pairs in which b reads better than a."""
    return sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)


def verdict(name: str, parent: list[float], change: list[float],
            better: str, bound: float | None) -> str:
    sign = 1 if better == "lower" else -1
    if name in EXACT:
        diffs = {(c > p) - (c < p) for p, c in zip(parent, change)}
        if diffs == {0}:
            return "same"
        return "higher" if 1 in diffs else "lower"
    pairs = min(len(parent), len(change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    apart = abs(c_med - p_med) > p_q3 - p_q1
    if apart and _wins(parent, change, sign) >= 0.9 * pairs:
        return "better"
    if bound is None:
        if apart and _wins(change, parent, sign) >= 0.9 * pairs:
            return "worse"
        return "no clear change"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    if max(spread(parent), spread(change)) > bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "better"
        return "unresolved"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    bad = False
    for key in sorted(parent.keys() & change.keys()):
        p_recs, c_recs = parent[key], change[key]
        print(f"== {key[0]}  trace {key[1]}: {len(p_recs)} parent runs, "
              f"{len(c_recs)} change runs; failed "
              f"{sum(r['failed'] for r in p_recs)}/"
              f"{sum(r['attempted'] for r in p_recs)} -> "
              f"{sum(r['failed'] for r in c_recs)}/"
              f"{sum(r['attempted'] for r in c_recs)}")
        for name, m in meta.items():
            p = [r["metrics"][name]["value"] for r in p_recs
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_recs
                 if name in r["metrics"]]
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            v = verdict(name, p, c, m["better"], m.get("bound"))
            bad |= v in BAD
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            print(f"   {name:<40} {pq[1]:>12.6g} [{pq[0]:.4g}, {pq[2]:.4g}]"
                  f" -> {cq[1]:>12.6g} [{cq[0]:.4g}, {cq[2]:.4g}] {m['unit']:<6}"
                  f" x{ratio:.3f} of {pq[1]:.6g}  {v}")
    only = parent.keys() ^ change.keys()
    if only:
        print(f"groups on one side only: {sorted(only)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
