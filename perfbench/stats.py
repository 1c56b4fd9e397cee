"""Summaries of timing samples: a median plus a tail percentile.

A tail percentile is only reported when at least ten samples lie beyond
it, so a run with few samples reports its median alone.
"""

import math
import statistics

PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n):
    """Highest percentile in PERCENTILES with at least MIN_BEYOND of
    n samples beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        # n * (100 - p) / 100 >= MIN_BEYOND; rounding absorbs the float
        # error of 100 - 99.9
        if round(n * (100.0 - p) * 10) >= MIN_BEYOND * 1000:
            best = p
    return best


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule."""
    k = max(1, math.ceil(round(p * len(sorted_values) / 100.0, 9)))
    return sorted_values[k - 1]


def summarize(samples):
    """{"median", "n", "tail_p", "tail"} for a non-empty sample list."""
    values = sorted(samples)
    p = tail_percentile(len(values))
    return {"median": statistics.median(values), "n": len(values),
            "tail_p": p,
            "tail": None if p is None else nearest_rank(values, p)}
