"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first; a summary reports the highest
# one that still has at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile ``p`` (0-100) of ``values``."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    k = (len(s) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def summarize(values) -> dict:
    """Median, the highest tail percentile with at least ten samples beyond
    it (absent when there are too few samples), and the sample count."""
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values)}
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= MIN_BEYOND:
            out["tail_p"] = p
            out["tail"] = percentile(values, p)
            break
    return out


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
