"""Host-speed correction for wall times measured on a shared host.

On a host shared with other tenants the same work can take 30% longer
for a minute and then speed up again; medians and minima taken within a
15-second run do not average that away.  A fixed reference kernel that
does not use the program (Python loops, a dict, a sort, small numpy
array operations -- the mix the measured code runs) slows down with the
host.  :class:`HostSpeed` times the kernel before and after every timed
unit and scales the unit's wall time by ``REFERENCE_S / kernel time``:
the unit's time at the speed the host had when the kernel took
:data:`REFERENCE_S`.  On the tuning host this cut the spread of a
reproduction pass's time over a few minutes from 0.11-0.17 to about
0.06 (interquartile range over median).  The kernel never touches the
program, so a change that makes the program faster shows in full.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

#: The kernel's best-of-3 time on the host this benchmark was tuned on
#: (2 vCPU Intel Xeon at 2.0 GHz, shared).
REFERENCE_S = 0.003

_ARRAY = np.random.default_rng(0).random(20_000)
_VALUES = _ARRAY[:10_000].tolist()


def reference_kernel() -> None:
    table = {}
    for i, x in enumerate(_VALUES[:4000]):
        table[i] = x * 2.0
    sorted(_VALUES)
    for _ in range(10):
        np.cumsum(_ARRAY)
        np.maximum(_ARRAY[:5000], 0.5)


def factor(before: float, after: float) -> float:
    """``REFERENCE_S`` over the mean of two kernel times: multiply a wall
    time measured between them by it, divide a rate by it."""
    return 2.0 * REFERENCE_S / (before + after)


class HostSpeed:
    """Times units of work and corrects them for the host's speed."""

    def __init__(
        self,
        kernel: Callable[[], None] = reference_kernel,
        clock: Callable[[], float] = time.perf_counter,
        repeats: int = 3,
    ) -> None:
        self.kernel, self.clock, self.repeats = kernel, clock, repeats

    def sample(self) -> float:
        """Best-of-``repeats`` seconds of one kernel run."""
        best = float("inf")
        for _ in range(self.repeats):
            started = self.clock()
            self.kernel()
            best = min(best, self.clock() - started)
        return best

    def measure(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` between two kernel samples: ``(result, factor)``."""
        before = self.sample()
        result = fn()
        return result, factor(before, self.sample())

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``fn``: ``(result, wall seconds, corrected seconds)``."""

        def run() -> tuple[Any, float]:
            started = self.clock()
            result = fn()
            return result, self.clock() - started

        (result, wall), f = self.measure(run)
        return result, wall, wall * f
