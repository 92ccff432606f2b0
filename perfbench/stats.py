"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, with the sample
count.  Percentiles use the nearest-rank rule, so a reported value is
always one of the measured samples.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def column_medians(rows: Sequence[Sequence[float]]) -> list[float]:
    """Per column, the median over rows (e.g. each part over passes)."""
    return [median(column) for column in zip(*rows)]


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` that leaves at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (``None`` if none
    does)."""
    for q in TAIL_PERCENTILES:
        if n - math.ceil(q / 100.0 * n) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> dict[str, float | None]:
    """``{"n", "p50", "tail_q", "tail"}`` for one latency sample."""
    q = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values) if values else None,
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
    }
