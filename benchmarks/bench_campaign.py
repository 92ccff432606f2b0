"""Benchmark: vectorised batch engine vs the scalar reference path.

The batch engine exists to make large sweeps cheap: one
``Engine.run_batch`` call replaces a Python-level loop over
``Engine.run``.  This harness times both on an identical 1000-point
*capped* intensity sweep -- heavy kernels on a power-capped platform,
so the governor control loop (the last scalar hot path) dominates --
asserts the batch path is at least 5x faster, and re-checks
bit-for-bit agreement on the benchmarked grid.  A second bench times a
small parallel campaign through ``CampaignRunner`` and records its
counters.

The speedup gate uses repeated *paired* measurements: each round times
the scalar loop and the batch path back to back, so machine-load
drift (CI neighbours, thermal throttling) moves both sides together,
and the gate compares medians of per-round minima rather than a single
scalar sample against a best-case batch number.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.machine.engine import Engine
from repro.machine.platforms import platform
from repro.microbench.campaign import CampaignRunner
from repro.microbench.kernels import intensity_kernel
from repro.microbench.suite import CampaignSettings

N_POINTS = 1000
MIN_SPEEDUP = 5.0
ROUNDS = 5
BATCH_REPS = 3  #: inner repetitions per round; the round keeps the min.


def _capped_sweep_kernels(config):
    # Heavy kernels (~0.1 s of work at full speed) make the governor
    # the hot path: a throttled run emits several hundred sawtooth
    # segments.  On apu-gpu roughly half the grid exceeds the cap.
    grid = np.geomspace(0.05, 200.0, N_POINTS)
    return [
        intensity_kernel(config, float(intensity), base_bytes=2e9)
        for intensity in grid
    ]


def test_batch_vs_scalar_speedup(benchmark):
    """run_batch must beat the per-kernel loop >=5x on a capped sweep."""
    config = platform("apu-gpu")
    engine = Engine(config)  # noise-free: the pure vectorisable path
    kernels = _capped_sweep_kernels(config)

    # Warm both paths once so import/JIT-cache costs don't skew either.
    engine.run(kernels[0])
    engine.run_batch(kernels[:2])

    scalar_times: list[float] = []
    batch_times: list[float] = []
    scalar = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        scalar = [engine.run(kernel) for kernel in kernels]
        scalar_times.append(time.perf_counter() - started)
        best = math.inf
        for _ in range(BATCH_REPS):
            started = time.perf_counter()
            engine.run_batch(kernels)
            best = min(best, time.perf_counter() - started)
        batch_times.append(best)
    scalar_seconds = float(np.median(scalar_times))
    batch_seconds = float(np.median(batch_times))
    speedup = scalar_seconds / batch_seconds

    # Record the batch path in the benchmark table too (display only;
    # the gate above never reads the plugin's internals).
    result = benchmark.pedantic(
        lambda: engine.run_batch(kernels), rounds=3, iterations=1
    )
    benchmark.extra_info["points"] = N_POINTS
    benchmark.extra_info["throttled"] = result.n_throttled
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 4)
    benchmark.extra_info["batch_seconds"] = round(batch_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)

    # The sweep must actually exercise the governor to be a meaningful
    # gate on the lockstep path.
    assert result.n_throttled > N_POINTS // 3
    assert speedup >= MIN_SPEEDUP, (
        f"batch path only {speedup:.1f}x faster than scalar "
        f"({batch_seconds:.4f}s vs {scalar_seconds:.4f}s, "
        f"medians over {ROUNDS} paired rounds)"
    )

    # The speed must not come at the cost of agreement: noise-off batch
    # results are bit-for-bit equal to the scalar oracle.
    assert np.array_equal(
        result.wall_times, np.array([r.wall_time for r in scalar])
    )
    assert np.array_equal(
        result.energies, np.array([r.true_energy for r in scalar])
    )


def test_parallel_campaign(benchmark):
    """A 4-platform quick campaign through the process pool."""
    runner = CampaignRunner(
        ("gtx-titan", "xeon-phi", "arndale-gpu", "nuc-gpu"),
        settings=CampaignSettings().scaled_down(),
        max_workers=4,
    )
    fits = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    assert set(fits) == set(runner.platform_ids)
    report = runner.report
    assert report is not None
    benchmark.extra_info["runs"] = report.n_runs
    benchmark.extra_info["parallel_efficiency"] = round(
        report.parallel_efficiency, 2
    )
    for shard in report.shards:
        assert shard.counters.calibration_hits > 0
