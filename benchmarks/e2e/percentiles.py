"""Order statistics shared by the benchmark and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: a percentile is reported only when at least this many samples lie
#: beyond it
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest.

    ``fraction * n`` is rounded to nine places first, so that a product
    such as ``0.07 * 100`` (7.000000000000001 in binary floating point)
    takes rank 7, not 8.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def supported(count: int, fraction: float) -> bool:
    """Whether ``count`` samples put at least :data:`MIN_TAIL_SAMPLES`
    beyond the ``fraction`` percentile."""
    return count - math.ceil(round(fraction * count, 9)) >= MIN_TAIL_SAMPLES


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def relative_iqr(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile over the median,
    as ``statistics.quantiles(values, n=4)`` gives them; ``None`` for
    fewer than two values or a zero median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return None
    return (q3 - q1) / abs(mid)
