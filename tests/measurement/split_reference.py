"""Per-segment reference for :meth:`RailTopology.split`.

This is the original scalar spill loop, one segment at a time.  The
library splits whole traces as arrays; the differential tests hold it
byte-identical to this loop.
"""

from __future__ import annotations

import numpy as np

from repro.machine.power import PowerTrace
from repro.measurement.rails import RailTopology


def split_reference(topology: RailTopology, trace: PowerTrace) -> dict[str, PowerTrace]:
    """Split ``trace`` across ``topology``'s rails segment by segment."""
    totals = trace.values
    n_rails = len(topology.rails)
    alloc = np.empty((n_rails, len(totals)))
    fractions = np.asarray(topology.fractions)
    limits = np.asarray(topology.limits)
    for j, total in enumerate(totals):
        share = fractions * total
        over = np.maximum(share - limits, 0.0)
        share = np.minimum(share, limits)
        spill = float(np.sum(over))
        # Redistribute spill over rails with headroom (a few passes
        # suffice; topologies have <= 3 rails).
        for _ in range(n_rails):
            if spill <= 1e-12:
                break
            headroom = limits - share
            open_rails = headroom > 1e-12
            if not np.any(open_rails):
                # No headroom anywhere: violate limits pro rata
                # (the hardware would brown out; we keep the sum).
                share = share + spill * fractions
                spill = 0.0
                break
            weights = np.where(open_rails, fractions, 0.0)
            if weights.sum() == 0.0:
                weights = open_rails.astype(float)
            weights = weights / weights.sum()
            add = np.minimum(spill * weights, headroom)
            share = share + add
            spill -= float(np.sum(add))
        alloc[:, j] = share
    return {
        rail: PowerTrace(trace.edges.copy(), alloc[k])
        for k, rail in enumerate(topology.rails)
    }
