"""Differential test: whole-array rail split vs the per-segment loop.

Every rail value must be byte-identical, not merely close: the split
feeds PowerMon sampling and so every fitted parameter downstream.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.platforms import all_platforms
from repro.machine.power import PowerTrace
from repro.measurement.rails import RailTopology, topology_for

from .split_reference import split_reference

#: The distinct topologies of the twelve platforms, in Table I's order.
PLATFORM_TOPOLOGIES = tuple(
    dict.fromkeys(topology_for(cfg) for cfg in all_platforms().values())
)

EXTRA_TOPOLOGIES = (
    # Saturates: past 300 W no rail has headroom and the split browns out.
    RailTopology(
        name="saturating",
        rails=("slot", "8pin", "6pin"),
        fractions=(0.2, 0.5, 0.3),
        limits=(75.0, 150.0, 75.0),
    ),
    # The only rail with headroom after clipping has fraction 0, so the
    # spill falls back to equal weights over the open rails.
    RailTopology(
        name="zero-fraction-open-rail",
        rails=("a", "b", "c"),
        fractions=(0.6, 0.4, 0.0),
        limits=(30.0, 20.0, math.inf),
    ),
)

TOPOLOGIES = PLATFORM_TOPOLOGIES + EXTRA_TOPOLOGIES


def power_ceiling(topology: RailTopology, factor: float) -> float:
    """``factor`` times the sum of the finite rail limits (500 W if none)."""
    finite = [limit for limit in topology.limits if math.isfinite(limit)]
    return factor * sum(finite) if finite else 500.0


def assert_split_identical(topology: RailTopology, trace: PowerTrace) -> None:
    got = topology.split(trace)
    want = split_reference(topology, trace)
    assert list(got) == list(want) == list(topology.rails)
    for rail in topology.rails:
        assert got[rail].values.tobytes() == want[rail].values.tobytes(), rail
        assert got[rail].edges.tobytes() == want[rail].edges.tobytes(), rail


def test_topologies_cover_every_platform_class():
    names = {topo.name for topo in PLATFORM_TOPOLOGIES}
    assert names == {"discrete-gpu", "coprocessor", "dc-brick", "cpu-system"}
    # Both discrete-GPU shapes (slot + 6-pin, slot + 8-pin + 6-pin).
    assert {len(topo.rails) for topo in PLATFORM_TOPOLOGIES} == {1, 2, 3}


def boundary_powers(topology: RailTopology) -> list[float]:
    """Zero, and totals at and near where each limited rail starts to clip.

    The offsets leave a rail a headroom or spill either side of the
    split's ``1e-12`` W thresholds.
    """
    clip_points = [
        limit / fraction
        for limit, fraction in zip(topology.limits, topology.fractions)
        if fraction > 0 and math.isfinite(limit)
    ]
    offsets = (0.0, -2e-12, 2e-12, -2e-11, 2e-11)
    return [0.0] + [point + offset for point in clip_points for offset in offsets]


@st.composite
def topology_and_trace(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    n = draw(st.integers(1, 500))
    # Bulk values from a seeded generator (drawing 500 floats one by one
    # is slow), then exact boundary values at hypothesis-chosen places.
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    powers = rng.uniform(0.0, power_ceiling(topology, 1.5), n)
    boundaries = st.sampled_from(boundary_powers(topology))
    for index, power in draw(
        st.lists(st.tuples(st.integers(0, n - 1), boundaries), max_size=8)
    ):
        powers[index] = power
    return topology, PowerTrace.from_durations(np.ones(n), powers)


@settings(max_examples=300)
@given(topology_and_trace())
def test_split_matches_per_segment_loop(case):
    topology, trace = case
    assert_split_identical(topology, trace)


@pytest.mark.parametrize(
    "topology", TOPOLOGIES, ids=lambda t: f"{t.name}-{len(t.rails)}-rails"
)
def test_split_matches_loop_on_a_dense_power_ramp(topology):
    powers = np.linspace(0.0, power_ceiling(topology, 2.0), 4001)
    trace = PowerTrace.from_durations(np.ones(len(powers)), powers)
    assert_split_identical(topology, trace)
