"""Power-rail topologies (Fig. 3 of the paper).

Different platform classes draw power through different paths, and the
rig probes each path separately:

* **CPU systems** -- PowerMon intercepts the CPU's 12 V EPS rail and
  the motherboard/ATX feed that powers the DRAM;
* **discrete GPUs** -- the PCIe slot (measured by the custom
  interposer, at most 75 W) plus one or two auxiliary 12 V PCIe
  connectors;
* **mobile boards** -- a single DC power brick carrying the whole
  system.

The simulator knows only the platform's *total* power trace; a rail
topology splits it into per-rail traces for the instrument, respecting
the PCIe slot's 75 W budget for GPUs.  Only the sum is analytically
meaningful -- exactly as in the paper -- but the split exercises the
multi-channel measurement path and the interposer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..machine.config import PlatformConfig
from ..machine.power import PowerTrace

__all__ = ["RailTopology", "topology_for", "PCIE_SLOT_LIMIT"]

#: Power the PCIe slot may deliver (W), per the specification.
PCIE_SLOT_LIMIT = 75.0


@dataclass(frozen=True)
class RailTopology:
    """How one platform's total power divides across measured rails."""

    name: str
    rails: tuple[str, ...]
    #: Fraction of total power carried by each rail *below* any limit.
    fractions: tuple[float, ...]
    #: Hard per-rail caps in W (inf = unlimited); overflow spills onto
    #: the later rails proportionally to their fractions.
    limits: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.rails:
            raise ValueError("topology needs at least one rail")
        if len(self.rails) != len(self.fractions) or len(self.rails) != len(self.limits):
            raise ValueError("rails, fractions, limits must have equal lengths")
        if not all(math.isfinite(f) for f in self.fractions):
            raise ValueError(f"fractions must be finite, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(self.fractions)}")
        if any(f < 0 for f in self.fractions):
            raise ValueError("fractions must be non-negative")
        # `not limit > 0` also rejects NaN; inf (unlimited) passes.
        if any(not limit > 0 for limit in self.limits):
            raise ValueError(f"limits must be positive or inf, got {self.limits}")

    def split(self, trace: PowerTrace) -> dict[str, PowerTrace]:
        """Split a total-power trace into per-rail traces.

        Each segment is split on its own, but all segments are computed
        together as one ``(n_rails, n_segments)`` array: every rail
        takes its fraction of the segment's total power, clipped at its
        limit, and the clipped overflow is redistributed over the rails
        with headroom (pro rata by fraction) in at most ``n_rails``
        passes.  A segment drops out of the passes once its spill is
        gone; a segment with no headroom on any rail violates the
        limits pro rata instead (the hardware would brown out).  The
        rail powers always sum exactly to the total.
        """
        totals = trace.values
        n_rails = len(self.rails)
        fractions = np.asarray(self.fractions)[:, None]
        limits = np.asarray(self.limits)[:, None]
        share = fractions * totals
        over = np.maximum(share - limits, 0.0)
        share = np.minimum(share, limits)
        spill = np.sum(over, axis=0)
        for _ in range(n_rails):
            # A NaN spill stays active, so NaN totals take the brown-out
            # branch below.
            active = ~(spill <= 1e-12)
            if not active.any():
                break
            headroom = limits - share
            open_rails = headroom > 1e-12
            any_open = open_rails.any(axis=0)
            brown = active & ~any_open
            share = np.where(brown, share + spill * fractions, share)
            spill = np.where(brown, 0.0, spill)
            weights = np.where(open_rails, fractions, 0.0)
            weights = np.where(
                np.sum(weights, axis=0) == 0.0, open_rails.astype(float), weights
            )
            # Segments with no open rail are masked out below; dividing
            # them by 1 instead of 0 keeps 0/0 warnings away.
            weights = weights / np.where(any_open, np.sum(weights, axis=0), 1.0)
            add = np.minimum(spill * weights, headroom)
            spread = active & any_open
            share = np.where(spread, share + add, share)
            spill = np.where(spread, spill - np.sum(add, axis=0), spill)
        return {
            rail: PowerTrace(trace.edges.copy(), share[k])
            for k, rail in enumerate(self.rails)
        }


def topology_for(config: PlatformConfig) -> RailTopology:
    """The measurement topology appropriate to a platform's class.

    GPUs above the slot budget get auxiliary connectors sized like the
    real cards (6-pin = 75 W, 8-pin = 150 W); mobile/low-power systems
    are measured at their DC brick; CPU systems at EPS + ATX.
    """
    truth = config.truth
    peak = config.max_model_power
    if config.kind == "gpu" and peak > PCIE_SLOT_LIMIT:
        if peak > PCIE_SLOT_LIMIT + 75.0 + 150.0:
            raise ValueError(
                f"{truth.name}: peak power {peak:.0f} W exceeds slot+6pin+8pin"
            )
        if peak > PCIE_SLOT_LIMIT + 150.0:
            rails = ("pcie_slot", "pcie_8pin", "pcie_6pin")
            fractions = (0.3, 0.45, 0.25)
            limits = (PCIE_SLOT_LIMIT, 150.0, 75.0)
        else:
            rails = ("pcie_slot", "pcie_6pin")
            fractions = (0.4, 0.6)
            limits = (PCIE_SLOT_LIMIT, 150.0)
        return RailTopology(
            name="discrete-gpu", rails=rails, fractions=fractions, limits=limits
        )
    if config.kind == "manycore":
        return RailTopology(
            name="coprocessor",
            rails=("pcie_slot", "pcie_8pin"),
            fractions=(0.25, 0.75),
            limits=(PCIE_SLOT_LIMIT, 225.0),
        )
    if peak <= 25.0:
        return RailTopology(
            name="dc-brick", rails=("brick",), fractions=(1.0,), limits=(np.inf,)
        )
    return RailTopology(
        name="cpu-system",
        rails=("eps_12v", "atx"),
        fractions=(0.7, 0.3),
        limits=(np.inf, np.inf),
    )
