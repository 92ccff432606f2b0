"""Seeded inputs: the serve arrival schedule and the fleet histograms.

Everything here is a pure function of the benchmark seed; the program
under test only ever sees what these return.
"""

from __future__ import annotations

import numpy as np

#: The six algorithms a fleet bin may name (``repro.fleet`` validates
#: them when the bins are built).
FLEET_ALGORITHMS = ("fft", "matmul", "mergesort", "spmv", "stencil", "triad")

#: Problem sizes per algorithm: large enough that each bin needs whole
#: nodes for an hour, so the integer mix matters.
FLEET_SIZES = {
    "fft": (2.0**22, 2.0**24, 2.0**26),
    "matmul": (4096.0, 8192.0, 16384.0),
    "mergesort": (1e6, 1e7, 1e8),
    "spmv": (1e6, 1e7, 1e8),
    "stencil": (1e7, 1e8, 1e9),
    "triad": (1e7, 1e8, 1e9),
}

#: Bin counts of the procurement stream, cycled in this order.
FLEET_BIN_COUNTS = (4, 6, 8, 12)

#: Seed of the procurement stream's bin sets (see :func:`fleet_histograms`).
STRUCTURE_SEED = 2014

#: Largest relative change the run seed makes to a bin's job count.
JITTER = 0.01


def arrival_times(seed: int, rate: float, duration: float) -> list[float]:
    """Poisson arrival offsets (seconds from the window start) at
    ``rate`` per second, all below ``duration``."""
    if rate <= 0.0 or duration <= 0.0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    expected = int(rate * duration)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected**0.5) + 16)
    times = np.cumsum(gaps)
    return [float(t) for t in times[times < duration]]


def fleet_histograms(seed: int, cycles: int) -> list[list[tuple[str, float, float]]]:
    """``cycles`` rounds of :data:`FLEET_BIN_COUNTS` histograms; each
    histogram is a list of distinct ``(algorithm, n, jobs)`` bins.

    Which bins a histogram holds, and their base job counts, are drawn
    from :data:`STRUCTURE_SEED`; ``seed`` scales every job count by a
    factor within :data:`JITTER` of 1.  Which solves hit the solver's
    polish cap (about a second each) depends on the bins and budgets:
    freely drawn bins made a stream's solve time vary twofold from seed
    to seed, and a 10% jitter still flipped solver outcomes.  So every
    seed gets a stream of the same difficulty while the inputs differ.
    """
    structure = np.random.default_rng(STRUCTURE_SEED)
    jitter = np.random.default_rng(seed)
    out = []
    for _ in range(cycles):
        for n_bins in FLEET_BIN_COUNTS:
            chosen: set[tuple[str, float]] = set()
            while len(chosen) < n_bins:
                algorithm = FLEET_ALGORITHMS[int(structure.integers(len(FLEET_ALGORITHMS)))]
                sizes = FLEET_SIZES[algorithm]
                chosen.add((algorithm, sizes[int(structure.integers(len(sizes)))]))
            out.append(
                [
                    (a, n, float(round(structure.integers(200, 2000) * jitter.uniform(1 - JITTER, 1 + JITTER))))
                    for a, n in sorted(chosen)
                ]
            )
    return out
