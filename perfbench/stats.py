"""Summary statistics shared by run.py and its worker processes.

Standard library only, so run.py never imports numpy.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie beyond it.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile in 50..99 with >= TAIL_BEYOND samples beyond it.

    A sample is beyond percentile p when its nearest rank exceeds
    ceil(p * count / 100). Returns None when even the median has fewer
    than TAIL_BEYOND samples beyond it.
    """
    for p in range(99, 49, -1):
        if count - math.ceil(p * count / 100) >= TAIL_BEYOND:
            return p
    return None


def nearest_rank(sorted_values: list[float], p: int) -> float:
    """The p-th percentile of ascending values by the nearest-rank rule."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def latency_summary(samples: list[float]) -> dict:
    """Median and tail of per-item latencies.

    The tail is the highest percentile that still has TAIL_BEYOND samples
    beyond it. With fewer than 2 * TAIL_BEYOND items no such percentile
    lies above the median, so the tail is the maximum and labelled "max".
    """
    if not samples:
        raise ValueError("no latency samples")
    values = sorted(samples)
    p = tail_percentile(len(values))
    return {
        "p50": statistics.median(values),
        "tail": nearest_rank(values, p) if p is not None else values[-1],
        "tail_label": f"p{p}" if p is not None else "max",
        "count": len(values),
    }


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
