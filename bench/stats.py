"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of ``pct`` in ``count`` samples (the small
    slack absorbs float error in products such as 99.9 * 10000)."""
    return max(math.ceil(pct * count / 100.0 - 1e-9), 1)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    samples beyond its nearest rank, or None for too small a sample."""
    best = None
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer
    than two samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
