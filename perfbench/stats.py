"""Order statistics shared by the runner and the compare tool."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_CANDIDATES = (90.0, 99.0, 99.9, 99.99)


def _rank(pct: float, n: int) -> int:
    """Nearest-rank index (1-based) of the pct-th percentile of n samples."""
    return -(-round(pct * 100) * n // 10000)


def percentile(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(_rank(pct, len(ordered)), 1) - 1]


def tail_percentile(samples: int) -> float:
    """The highest candidate percentile with at least 10 samples beyond it."""
    best = 50.0
    for pct in TAIL_CANDIDATES:
        if samples - _rank(pct, samples) >= 10:
            best = pct
    return best


def unit_time(repetitions: Sequence[float]) -> float:
    """One timed unit's value: the mean of its repetitions, leaving out the
    slowest once there are three, so that a one-off stall in one pass does
    not count as the unit's cost."""
    reps = sorted(repetitions)
    return statistics.fmean(reps[:-1] if len(reps) >= 3 else reps)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
