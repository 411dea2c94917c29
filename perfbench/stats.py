"""Order statistics for the benchmark report.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, with the sample count; run
sets are compared by the spread ``IQR / median`` of their values.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: percentiles a tail may be reported at, in ascending order.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: a tail percentile needs this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


median = statistics.median


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with ≥ 10 of ``count`` samples beyond
    it, or None when even the median has fewer."""
    best = None
    for q in TAIL_LADDER:
        if round(count * (100.0 - q), 6) >= TAIL_MIN_BEYOND * 100:
            best = q
    return best


def summarize(values: Sequence[float]) -> dict:
    """``{"n", "p50", "tail_q", "tail"}`` for one timing's samples."""
    tail_q = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_q": tail_q,
        "tail": None if tail_q is None else percentile(values, tail_q),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median — the driver's
    steadiness measure, by ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0  # also when every value is 0, as ``failed_ratio`` is
    return (q3 - q1) / q2
