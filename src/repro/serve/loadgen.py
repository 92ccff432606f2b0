"""Load generation for the predict service, with SLO reporting.

Two arrival disciplines, both seeded and deterministic in *what* they
send (the latencies they observe are, of course, the machine's):

closed loop (:func:`run_closed_loop`)
    N clients, each holding one keep-alive connection, each issuing
    its next request the moment the previous response lands.  Offered
    load adapts to service speed -- the discipline under which batch
    coalescing shows up as throughput, and the one the SLO suite's
    acceptance numbers are defined against.
open loop (:func:`run_open_loop`)
    Poisson arrivals at a fixed rate, one connection per request,
    independent of service speed -- the discipline that exposes
    queueing collapse when offered load exceeds capacity.

:func:`generate_mix` builds a seeded request mix over the kernel and
platform catalogues; :class:`LoadReport` aggregates per-request
latencies into the p50/p99 numbers the SLO tests assert
(docs/SERVE.md documents the bounds and the two-tier deflaking
policy).  Run as a module for a CLI smoke client::

    python -m repro.serve.loadgen --port 8787 --clients 8 --requests 4
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .protocol import KERNEL_IDS

__all__ = [
    "HttpClient",
    "LoadReport",
    "generate_mix",
    "run_closed_loop",
    "run_open_loop",
    "main",
]

#: Default per-kernel problem-size menus: sizes chosen so every
#: (kernel, platform) pair stays well inside the service's simulated-
#: duration bound while exercising memory-, compute- and cap-bound
#: regimes.
DEFAULT_SIZES: dict[str, tuple[float, ...]] = {
    "matmul": (64.0, 256.0, 1024.0),
    "fft": (4096.0, 65536.0, 1048576.0),
    "stencil": (1e4, 1e6, 1e7),
    "triad": (1e4, 1e6, 1e7),
    "spmv": (1e4, 1e5, 1e6),
    "mergesort": (1e4, 1e5, 1e6),
}

DEFAULT_PLATFORMS = ("gtx-titan", "nuc-gpu", "arndale-gpu")


class HttpClient:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # server already dropped it; close is best-effort.
            self._writer = None
            self._reader = None

    async def request(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        *,
        close: bool = False,
    ) -> tuple[int, dict[str, Any]]:
        """Issue one request; returns ``(status, parsed JSON body)``."""
        if self._reader is None or self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if close:
            head += "Connection: close\r\n"
        self._writer.write(head.encode("latin-1") + b"\r\n" + payload)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> tuple[int, dict[str, Any]]:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(maxsplit=2)
        status = int(parts[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("truncated response headers")
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b""
        return status, json.loads(raw) if raw else {}


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    latencies: list[float] = field(default_factory=list)  #: seconds.
    statuses: dict[int, int] = field(default_factory=dict)
    #: (query, response body) pairs in completion order, kept so SLO
    #: tests can compare every served prediction against the oracle.
    exchanges: list[tuple[dict[str, Any], dict[str, Any]]] = field(
        default_factory=list, repr=False
    )
    wall_seconds: float = 0.0

    def record(
        self,
        query: dict[str, Any],
        status: int,
        body: dict[str, Any],
        latency: float,
    ) -> None:
        self.latencies.append(latency)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.exchanges.append((query, body))

    @property
    def n_requests(self) -> int:
        return len(self.latencies)

    @property
    def ok(self) -> bool:
        """All requests answered 200."""
        return set(self.statuses) == {200} and self.n_requests > 0

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (q in [0, 100])."""
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.array(self.latencies), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def throughput_rps(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.n_requests / self.wall_seconds

    def describe(self) -> str:
        statuses = ", ".join(
            f"{count}x{code}" for code, count in sorted(self.statuses.items())
        )
        return (
            f"{self.n_requests} requests in {self.wall_seconds:.2f}s "
            f"({self.throughput_rps:.0f} req/s): p50 {self.p50 * 1e3:.2f} ms, "
            f"p99 {self.p99 * 1e3:.2f} ms [{statuses}]"
        )


def generate_mix(
    n: int,
    *,
    seed: int = 2014,
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    kernels: Sequence[str] = KERNEL_IDS,
    cap_probability: float = 0.25,
    theta: str = "truth",
) -> list[dict[str, Any]]:
    """A seeded list of ``n`` predict query bodies.

    Deterministic for a given seed (the differential and SLO suites
    rely on replayable mixes); ``cap_probability`` of the queries
    carry a ``power_cap`` drawn between 5 and 120 W.
    """
    rng = np.random.default_rng(seed)
    mix: list[dict[str, Any]] = []
    for _ in range(n):
        kernel = str(rng.choice(list(kernels)))
        sizes = DEFAULT_SIZES[kernel]
        query: dict[str, Any] = {
            "kernel": kernel,
            "platform": str(rng.choice(list(platforms))),
            "n": float(rng.choice(sizes)),
            "theta": theta,
        }
        if rng.random() < cap_probability:
            query["power_cap"] = float(rng.uniform(5.0, 120.0))
        mix.append(query)
    return mix


async def run_closed_loop(
    host: str,
    port: int,
    *,
    n_clients: int,
    requests_per_client: int,
    mix: Sequence[dict[str, Any]] | None = None,
    seed: int = 2014,
) -> LoadReport:
    """N closed-loop clients over keep-alive connections.

    Client ``i`` issues requests ``i``, ``i + n_clients``, ... from the
    mix (generated from ``seed`` when not given), so the workload is
    deterministic regardless of completion order.
    """
    total = n_clients * requests_per_client
    queries = list(mix) if mix is not None else generate_mix(total, seed=seed)
    if len(queries) < total:
        queries = [queries[i % len(queries)] for i in range(total)]
    report = LoadReport()

    async def client(index: int) -> None:
        conn = HttpClient(host, port)
        try:
            for j in range(requests_per_client):
                query = queries[index + j * n_clients]
                started = time.perf_counter()
                status, body = await conn.request("POST", "/predict", query)
                report.record(
                    query, status, body, time.perf_counter() - started
                )
        finally:
            await conn.close()

    started = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(n_clients)))
    report.wall_seconds = time.perf_counter() - started
    return report


async def run_open_loop(
    host: str,
    port: int,
    *,
    rate_rps: float,
    n_requests: int,
    mix: Sequence[dict[str, Any]] | None = None,
    seed: int = 2014,
) -> LoadReport:
    """Poisson open-loop arrivals at ``rate_rps``, one connection per
    request; arrivals do not wait for completions.

    Request ``i`` is due at the absolute time ``start + sum(gaps[:i+1])``
    and its latency runs from that due time, so a stall (a slow event
    loop, a blocking handler) neither thins the offered load nor hides
    the time overdue requests waited to be sent.
    """
    if rate_rps <= 0.0:
        raise ValueError("rate_rps must be positive")
    queries = (
        list(mix) if mix is not None else generate_mix(n_requests, seed=seed)
    )
    if len(queries) < n_requests:
        queries = [queries[i % len(queries)] for i in range(n_requests)]
    rng = np.random.default_rng(seed + 1)
    gaps = rng.exponential(1.0 / rate_rps, size=n_requests)
    report = LoadReport()

    async def one(query: dict[str, Any], due: float) -> None:
        conn = HttpClient(host, port)
        try:
            status, body = await conn.request(
                "POST", "/predict", query, close=True
            )
            report.record(query, status, body, time.perf_counter() - due)
        finally:
            await conn.close()

    started = time.perf_counter()
    tasks = []
    for query, due in zip(queries, started + np.cumsum(gaps)):
        wait = due - time.perf_counter()
        if wait > 0.0:
            await asyncio.sleep(wait)
        tasks.append(asyncio.ensure_future(one(query, float(due))))
    await asyncio.gather(*tasks)
    report.wall_seconds = time.perf_counter() - started
    return report


async def fetch_stats(host: str, port: int) -> dict[str, Any]:
    """One-shot ``GET /stats``."""
    conn = HttpClient(host, port)
    try:
        status, body = await conn.request("GET", "/stats", close=True)
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/stats answered {status}: {body}")
    return body


def main(argv: Sequence[str] | None = None) -> int:
    """CLI smoke client (used by the CI serve job)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Drive an archline predict service and report "
        "latency percentiles.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--mode", choices=["closed", "open"], default="closed"
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--requests", type=int, default=4, help="requests per client (closed)"
    )
    parser.add_argument(
        "--rate", type=float, default=200.0, help="arrivals/s (open)"
    )
    parser.add_argument(
        "--total", type=int, default=64, help="total requests (open)"
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON summary"
    )
    args = parser.parse_args(argv)

    if args.mode == "closed":
        report = asyncio.run(
            run_closed_loop(
                args.host,
                args.port,
                n_clients=args.clients,
                requests_per_client=args.requests,
                seed=args.seed,
            )
        )
    else:
        report = asyncio.run(
            run_open_loop(
                args.host,
                args.port,
                rate_rps=args.rate,
                n_requests=args.total,
                seed=args.seed,
            )
        )
    if args.json:
        print(
            json.dumps(
                {
                    "n_requests": report.n_requests,
                    "statuses": {
                        str(k): v for k, v in report.statuses.items()
                    },
                    "p50_s": report.p50,
                    "p99_s": report.p99,
                    "throughput_rps": report.throughput_rps,
                    "wall_seconds": report.wall_seconds,
                },
                sort_keys=True,
            )
        )
    else:
        print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
