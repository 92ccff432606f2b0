"""The open-loop generator keeps an absolute arrival schedule.

A stub client replaces the HTTP connection, and the first request
blocks the event loop for ``STALL`` seconds.  Requests that fell due
during the stall must report the time they waited to be sent, and the
requests due after it must still go out on their own schedule instead
of shifting later by the stall.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.serve import loadgen

RATE = 50.0  #: arrivals/s: a mean gap of 20 ms.
N = 30
SEED = 3
STALL = 0.3  #: seconds the first request blocks the event loop.
SLACK = 0.05  #: timer and scheduling slack on a busy host, seconds.


def test_stall_is_charged_to_overdue_requests(monkeypatch):
    returned: dict[int, float] = {}

    class StubClient:
        def __init__(self, host: str, port: int) -> None:
            pass

        async def request(self, method, path, body=None, *, close=False):
            if body["id"] == 0:
                time.sleep(STALL)  # synchronous: nothing else runs.
            returned[body["id"]] = time.perf_counter()
            return 200, {}

        async def close(self) -> None:
            pass

    monkeypatch.setattr(loadgen, "HttpClient", StubClient)
    mix = [{"id": i} for i in range(N)]
    report = asyncio.run(
        loadgen.run_open_loop(
            "stub", 0, rate_rps=RATE, n_requests=N, mix=mix, seed=SEED
        )
    )
    assert report.statuses == {200: N}

    latency = {
        query["id"]: lat
        for (query, _), lat in zip(report.exchanges, report.latencies)
    }
    # Each request's due time, recovered from when its (instant) stub
    # returned and the latency the generator charged it.
    due = np.array([returned[i] - latency[i] for i in range(N)])
    # The generator's own gap draw: request i is due sum(gaps[:i+1])
    # after the start.
    offsets = np.cumsum(
        np.random.default_rng(SEED + 1).exponential(1.0 / RATE, size=N)
    )
    # The schedule is anchored at the start: due times keep the Poisson
    # offsets exactly, the stall neither shifts nor squeezes them.
    np.testing.assert_allclose(
        due - due[0], offsets - offsets[0], rtol=0, atol=1e-3
    )

    stall_end = returned[0]
    overdue = [i for i in range(1, N) if due[i] < stall_end]
    on_time = [i for i in range(1, N) if due[i] > stall_end + SLACK]
    assert overdue and on_time, "the stall must split the schedule"
    for i in overdue:
        # Charged from its due time, so the wait behind the stall counts.
        assert latency[i] >= stall_end - due[i]
    for i in on_time:
        # Sent when due, not STALL seconds late.
        assert latency[i] < SLACK
