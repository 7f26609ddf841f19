"""Order statistics with the benchmark's sample-count rule.

A timing is reported as a median, plus the highest whole percentile that
still has at least ``MIN_BEYOND`` samples above it. Fewer samples than
that give no tail at all rather than a tail read off a handful of values.
"""

from __future__ import annotations

import math

import numpy as np

MIN_BEYOND = 10


def median(values) -> float:
    if len(values) == 0:
        raise ValueError("median of no samples")
    return float(np.median(values))


def beyond(n: int, p: float) -> int:
    """How many of n sorted samples lie above the p-th percentile's rank."""
    return n - math.ceil(n * p / 100.0)


def highest_tail(n: int) -> int | None:
    """Highest whole percentile above the median with MIN_BEYOND samples past it."""
    for p in range(99, 50, -1):
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values, p: int) -> float | None:
    """The p-th percentile, or None when fewer than MIN_BEYOND samples lie past it."""
    if beyond(len(values), p) < MIN_BEYOND:
        return None
    return float(np.percentile(values, p))
