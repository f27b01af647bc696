"""Order statistics the suite reports.

Kept inside the benchmark (not imported from :mod:`repro.stats`) so the
instrument does not move when the program it measures does.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A tail percentile needs this many pooled samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile: always an observed value."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[rank])


def tail_percentile(samples: int) -> int:
    """The highest of p99/p90 with at least ten samples beyond it
    (p99 needs 1 000 pooled samples, p90 needs 100)."""
    return 99 if samples * 0.01 >= TAIL_MIN_BEYOND else 90


def tail_pool(q: int) -> int:
    """How many samples a pool needs for ten to lie beyond its *q*-th
    percentile (100 for p90, 1 000 for p99)."""
    return TAIL_MIN_BEYOND * 100 // (100 - q)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them —
    the same rule the acceptance check applies to ten runs."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values: Sequence[float], value: float | None = None) -> dict:
    """The headline *value* (the median unless given), quartiles, min
    and the raw per-repetition values."""
    q1, q3 = quartiles(values)
    return {
        "value": statistics.median(values) if value is None else value,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "per_repetition": list(values),
    }


def spread(stat: dict) -> float:
    """Inter-quartile distance as a share of the headline value."""
    return (stat["q3"] - stat["q1"]) / stat["value"] if stat["value"] else 0.0
