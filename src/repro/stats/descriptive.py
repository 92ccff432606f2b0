"""Descriptive statistics used by the analysis and reporting layers.

Fig. 4's boxplots need median and quartiles of error distributions;
Section V-C computes a correlation between constant-power fraction and
peak energy-efficiency.  Everything here is a thin, well-specified
wrapper over NumPy so the experiment code reads declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BoxplotStats",
    "boxplot_stats",
    "pearson",
    "quantile",
]


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number-style summary of one distribution."""

    n: int
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        """Inter-quartile range."""
        return self.q75 - self.q25

    @property
    def spread(self) -> float:
        """Full range (max - min)."""
        return self.maximum - self.minimum


def boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    """Median/quartile summary (linear-interpolated quantiles)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    if np.any(~np.isfinite(arr)):
        raise ValueError("values must all be finite")
    q25, median, q75 = np.quantile(arr, [0.25, 0.5, 0.75])
    return BoxplotStats(
        n=int(arr.size),
        minimum=float(np.min(arr)),
        q25=float(q25),
        median=float(median),
        q75=float(q75),
        maximum=float(np.max(arr)),
        mean=float(np.mean(arr)),
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Single quantile with input validation."""
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    return float(np.quantile(arr, q))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient.

    Raises for length mismatch, fewer than 2 points, or degenerate
    (zero-variance) inputs rather than returning NaN.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("x and y must have the same length")
    if xa.size < 2:
        raise ValueError("need at least two points")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = float(np.sqrt(np.sum(xc * xc) * np.sum(yc * yc)))
    # Exact sentinel: the sum of squares is 0.0 only for a constant
    # input, the one case with no defined correlation.
    # archlint: disable=ARCH004
    if denom == 0.0:
        raise ValueError("zero variance input")
    return float(np.sum(xc * yc) / denom)

