"""``serve_open_loop``: ``archline serve`` under open-loop Poisson load.

The server (default batcher, truth theta) runs in its own process.  This
process is a single-threaded open-loop generator over two keep-alive
connections sending the seeded ``generate_mix`` traffic: six kernels,
three platforms, a quarter of the queries with a continuous power cap
(each cap a new memoised engine in the server).

Every request has an absolute due time from a seeded Poisson schedule.
A connection sends its next request when it is due and the connection
is free, and latency runs from the due time, so time a request waits
behind a slow server counts.  The generator's own lateness (how late it
woke for a request it was idle waiting for) is reported, and a window
where it exceeds :data:`GEN_LATE_LIMIT_S` is marked invalid: there the
generator, not the server, fell behind.

Windows: a warm-up; then rounds alternating a light window (100 req/s:
linger and HTTP dominate) and a heavy one (200 req/s: pairs coalesce);
then saturation windows offered more than the server can take; then a
ladder in 100 req/s steps from the heavy rate, stopping at the first
rate failing the latency limit (``serve_max_rps``, reported).

The gated figures are chosen to be steady on a host shared with other
tenants, where whole runs slow down by a third and queueing amplifies
it: ``light_ms`` and ``heavy_ms`` are the median over windows of the
window's 25th-percentile latency at the light and heavy rate (requests
that found a free connection: protocol, batcher, engine and HTTP with
little queueing), and ``rate_per_s`` the median over saturation windows
of the peak throughput (responses completed in the busiest 100 ms of
the window).  Over ten runs the window median latency spread up to 0.59
and the mean saturation throughput up to 0.46; the 25th percentile
spread 0.09-0.22 and the peak throughput 0.06-0.15 (the 10th percentile
was no steadier: 0.30).  ``good_share`` is the share of all
heavy-rate requests answered 200 within :data:`LATENCY_LIMIT_S`.  The
pooled p50 and tail percentiles are on the report lines.  ``setup_s``
(corrected for the host's speed, ``hostspeed``) is fresh interpreter to
listening and ``peak_rss_mb`` the server's peak RSS.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import subprocess
import time
from dataclasses import dataclass, field

from common import SETUP_REPEATS, Context, Outcome, proc_memory_mb, spawn, stop, wait_for_line
from hostspeed import HostSpeed
from inputs import arrival_times
from stats import median, percentile, summarize

HOST = "127.0.0.1"
CONNECTIONS = 2
LIGHT_RPS = 100.0
#: Well under the knee.  Each connection is a queue: at 300 req/s it is
#: 60% busy and a slow spell of the shared host tripled the median
#: latency; at 400 req/s one run of ten went past saturation.
HEAVY_RPS = 200.0
LADDER_RPS = tuple(float(rate) for rate in range(100, 1001, 100))
#: Light/heavy rounds, and their share of the run's seconds.
ROUNDS = 6
LIGHT_SHARE, HEAVY_SHARE = 0.25, 0.35
#: Offered rate and length of each saturation window, and the bin its
#: peak throughput is counted in.
SATURATION_RPS, SATURATION_S, SATURATIONS = 1000.0, 0.8, 3
PEAK_BIN_S = 0.1
#: The percentile of a window's latencies that ``light_ms`` and
#: ``heavy_ms`` take.
GATED_PERCENTILE = 25.0
LATENCY_LIMIT_S = 0.050
#: Samples a ladder rung needs for its p99 (ten beyond it).
RUNG_SAMPLES = 1100
#: p90 wake-up lateness beyond which a window's generator fell behind.
GEN_LATE_LIMIT_S = 0.005
#: Growth of the median send delay, first to last quarter of a window,
#: that counts as a growing backlog.
BACKLOG_GROWTH_S = 0.010
_LISTENING = re.compile(r"listening on [^:]+:(\d+)")


@dataclass
class Window:
    """One constant-rate window's exchanges and timings."""

    rate: float
    queries: list[dict]
    duration: float = 0.0
    latency: list[float] = field(default_factory=list)  #: due -> response.
    done: list[float] = field(default_factory=list)  #: window start -> response.
    send_delay: list[float] = field(default_factory=list)  #: due -> sent.
    status: list[int] = field(default_factory=list)
    bodies: list[dict] = field(default_factory=list)
    wake_late: list[float] = field(default_factory=list)

    @property
    def generator_ok(self) -> bool:
        return len(self.wake_late) < 20 or percentile(self.wake_late, 90.0) <= GEN_LATE_LIMIT_S

    @property
    def backlog_growing(self) -> bool:
        q = len(self.send_delay) // 4
        if q < 10:
            return False
        return median(self.send_delay[-q:]) > median(self.send_delay[:q]) + BACKLOG_GROWTH_S

    def good(self) -> list[bool]:
        """Per request: answered 200 within the latency limit."""
        return [s == 200 and lat <= LATENCY_LIMIT_S for s, lat in zip(self.status, self.latency)]

    @property
    def peak_throughput(self) -> float:
        """Responses per second in the window's busiest :data:`PEAK_BIN_S`."""
        bins = [0] * math.ceil(self.duration / PEAK_BIN_S)
        for status, done in zip(self.status, self.done):
            if status == 200 and done < self.duration:
                bins[int(done / PEAK_BIN_S)] += 1
        return max(bins) / PEAK_BIN_S

    def passes(self) -> bool:
        return (
            all(s == 200 for s in self.status)
            and percentile(self.latency, 99.0) <= LATENCY_LIMIT_S
            and not self.backlog_growing
        )

    def describe(self, name: str) -> str:
        s = summarize(self.latency)
        tail = f"p{s['tail_q']:g} {s['tail'] * 1e3:.2f} ms" if s["tail_q"] else "no tail percentile"
        late = max(self.wake_late, default=0.0)
        return (
            f"serve_open_loop: {name} {self.rate:g} req/s: p50 {s['p50'] * 1e3:.2f} ms, {tail} "
            f"(n={s['n']}, non-200 {sum(x != 200 for x in self.status)}); generator max lateness "
            f"{late * 1e3:.2f} ms{'' if self.generator_ok else ' INVALID (generator fell behind)'}"
            f"{'; backlog growing' if self.backlog_growing else ''}"
        )


async def run_window(port: int, rate: float, duration: float, seed: int) -> Window:
    """Drive one window of Poisson arrivals; latencies from due times."""
    from repro.serve.loadgen import HttpClient, generate_mix

    due = arrival_times(seed, rate, duration)
    window = Window(rate=rate, queries=generate_mix(len(due), seed=seed), duration=duration)
    n = len(due)
    window.latency, window.send_delay, window.done = [math.inf] * n, [0.0] * n, [math.inf] * n
    window.status, window.bodies = [0] * n, [{}] * n
    loop = asyncio.get_running_loop()
    clients = [HttpClient(HOST, port) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    start = loop.time() + 0.02
    cursor = 0

    async def connection(client) -> None:
        nonlocal cursor
        while cursor < n:
            i, cursor = cursor, cursor + 1
            at = start + due[i]
            if loop.time() < at:
                await asyncio.sleep(at - loop.time())
                window.wake_late.append(loop.time() - at)
            window.send_delay[i] = loop.time() - at
            try:
                window.status[i], window.bodies[i] = await client.request("POST", "/predict", window.queries[i])
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await client.close()  # status stays 0: failed; reconnects on next use.
            window.latency[i] = loop.time() - at
            window.done[i] = loop.time() - start

    try:
        await asyncio.gather(*(connection(c) for c in clients))
    finally:
        for client in clients:
            await client.close()
    return window


async def fetch_stats(port: int) -> dict:
    from repro.serve.loadgen import HttpClient

    client = HttpClient(HOST, port)
    try:
        return (await client.request("GET", "/stats", close=True))[1]
    finally:
        await client.close()


def start_server(ctx: Context, args: list[str]) -> tuple[subprocess.Popen, int, float]:
    """Launch a server; ``(process, port, seconds to listening)``."""
    started = time.perf_counter()
    proc = spawn(ctx, [*args, "--port", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = wait_for_line(proc, proc.stderr, "listening on", timeout=120.0)
    except BaseException:
        stop(proc)
        raise
    return proc, int(_LISTENING.search(line).group(1)), time.perf_counter() - started


def shut_down(proc: subprocess.Popen) -> None:
    stop(proc)
    proc.communicate()


def check_oracle(out: Outcome, windows: list[Window]) -> None:
    """Every response equals the unbatched oracle: ``encode_prediction``
    over a scalar ``Engine(config, rng=None).run`` of the same query."""
    from repro.serve.protocol import build_kernel, encode_prediction, parse_predict_body
    from repro.serve.theta import ThetaResolver

    resolver, oracle = ThetaResolver(), {}
    for window in windows:
        for query, status, body in zip(window.queries, window.status, window.bodies):
            key = json.dumps(query, sort_keys=True)
            if key not in oracle:
                parsed = parse_predict_body(key.encode())
                engine = resolver.engine(parsed)
                oracle[key] = encode_prediction(engine.run(build_kernel(parsed, engine.config)))
            out.check(
                status == 200 and body.get("prediction") == oracle[key],
                f"{window.rate:g} req/s: status {status} or prediction differs from the oracle for {key}",
            )


def pooled(windows: list[Window]) -> Window:
    """One window holding every exchange of ``windows`` (same rate).
    Send delays are left out: a backlog only grows within a window."""
    out = Window(rate=windows[0].rate, queries=[], duration=sum(w.duration for w in windows))
    for w in windows:
        for name in ("queries", "latency", "done", "status", "bodies", "wake_late"):
            getattr(out, name).extend(getattr(w, name))
    return out


def measure(ctx: Context, proc: subprocess.Popen, port: int, ladder: bool) -> tuple[dict[str, Window], dict, float]:
    """Warm-up, light/heavy rounds, saturation, then (optionally) the
    ladder: ``(windows by name, /stats, server RSS growth after warm-up
    in MB)``."""
    light_s = LIGHT_SHARE * ctx.seconds / ROUNDS
    heavy_s = HEAVY_SHARE * ctx.seconds / ROUNDS
    seed = ctx.seed * 1000

    async def main():
        named = {"warm-up": await run_window(port, LIGHT_RPS, 1.0, seed + 1)}
        rss_warm = proc_memory_mb(proc.pid)[0]
        for k in range(ROUNDS):
            named[f"light {k}"] = await run_window(port, LIGHT_RPS, light_s, seed + 10 + k)
            named[f"heavy {k}"] = await run_window(port, HEAVY_RPS, heavy_s, seed + 20 + k)
        for k in range(SATURATIONS):
            named[f"saturation {k}"] = await run_window(port, SATURATION_RPS, SATURATION_S, seed + 30 + k)
        if ladder:
            named.update(await climb(port, pooled(by_kind(named, "heavy")), seed + 40))
        return named, await fetch_stats(port), proc_memory_mb(proc.pid)[0] - rss_warm

    return asyncio.run(main())


def by_kind(named: dict[str, Window], kind: str) -> list[Window]:
    return [w for name, w in named.items() if name.split()[0] == kind]


async def climb(port: int, heavy: Window, seed: int) -> dict[str, Window]:
    """Ladder from the heavy rate: up while rungs pass, down if it fails."""
    rungs: dict[str, Window] = {}
    start = LADDER_RPS.index(HEAVY_RPS)
    step = 1 if heavy.passes() and heavy.generator_ok else -1
    i = start + step
    while 0 <= i < len(LADDER_RPS):
        rate = LADDER_RPS[i]
        window = await run_window(port, rate, RUNG_SAMPLES / rate, seed + i)
        rungs[f"ladder {rate:g}"] = window
        if not window.generator_ok:
            break
        if (step > 0) != window.passes():
            break
        i += step
    return rungs


def max_rate(named: dict[str, Window]) -> tuple[float, float]:
    """``(serve_max_rps, knee)`` from the heavy window and the ladder.

    ``serve_max_rps`` is the highest rate that passed, climbing from the
    lowest rung run with no failing or invalid rung below it (0 if
    none).  ``knee`` refines it: when the next rung failed with every
    request answered and p99 over the limit, the rate where p99 reaches
    the limit, interpolated linearly between the two rungs; otherwise
    ``serve_max_rps`` itself.
    """
    windows = sorted([pooled(by_kind(named, "heavy"))] + by_kind(named, "ladder"), key=lambda w: w.rate)
    best, failed = None, None
    for window in windows:
        if window.generator_ok and window.passes():
            best = window
        else:
            failed = window
            break
    if best is None:
        return 0.0, 0.0
    if failed is None or not failed.generator_ok:
        return best.rate, best.rate
    p0, p1 = percentile(best.latency, 99.0), percentile(failed.latency, 99.0)
    if p1 <= LATENCY_LIMIT_S or any(s != 200 for s in failed.status):
        return best.rate, best.rate
    return best.rate, best.rate + (failed.rate - best.rate) * (LATENCY_LIMIT_S - p0) / (p1 - p0)


def run(ctx: Context) -> Outcome:
    out = Outcome()
    if ctx.trace:
        return run_traced(ctx, out)
    speed = HostSpeed()
    setup_walls, setups = [], []
    for _ in range(SETUP_REPEATS):
        (proc, port, elapsed), f = speed.measure(lambda: start_server(ctx, ["-m", "repro.cli", "serve"]))
        setup_walls.append(elapsed)
        setups.append(elapsed * f)
        if len(setups) < SETUP_REPEATS:
            shut_down(proc)
    try:
        named, stats, growth = measure(ctx, proc, port, ladder=True)
        rss_peak = proc_memory_mb(proc.pid)[1]
    finally:
        shut_down(proc)
    check_oracle(out, list(named.values()))
    light, heavy = pooled(by_kind(named, "light")), pooled(by_kind(named, "heavy"))
    good = heavy.good()
    best, knee = max_rate(named)
    saturation = median([w.peak_throughput for w in by_kind(named, "saturation")])
    out.metrics.update(
        setup_s=median(setups),
        peak_rss_mb=rss_peak,
        heavy_ms=median([percentile(w.latency, GATED_PERCENTILE) for w in by_kind(named, "heavy")]) * 1e3,
        light_ms=median([percentile(w.latency, GATED_PERCENTILE) for w in by_kind(named, "light")]) * 1e3,
        rate_per_s=saturation,
        good_share=sum(good) / len(good),
    )
    out.report += [w.describe(name) for name, w in named.items()]
    for name, window in (("light", light), ("heavy", heavy)):
        s = summarize(window.latency)
        out.report.append(
            f"serve_open_loop: serve_{name}_p50_ms {s['p50'] * 1e3:.3f} ms, "
            f"serve_{name}_p{s['tail_q']:g}_ms {s['tail'] * 1e3:.3f} ms (n={s['n']}, pooled over "
            f"{ROUNDS} windows); median window p{GATED_PERCENTILE:g} {out.metrics[name + '_ms']:.3f} ms"
        )
    out.report += [
        f"serve_open_loop: serve_max_rps {best:g} req/s (p99 <= {LATENCY_LIMIT_S * 1e3:g} ms, "
        f"no growing backlog, {CONNECTIONS} connections); interpolated knee {knee:.1f} req/s; "
        f"saturation peak throughput {saturation:.1f} req/s",
        f"serve_open_loop: setup_s {median(setups):.4f} s corrected, {median(setup_walls):.4f} s wall "
        f"(medians of {len(setups)}); server peak_rss_mb "
        f"{rss_peak:.1f} MB, serve_rss_growth_mb {growth:.2f} MB; batches {stats['batch']['batches']}, mean width "
        f"{stats['batch']['mean_width']:.3f}, engines {stats['theta']['engines']}",
    ]
    return out


def run_traced(ctx: Context, out: Outcome) -> Outcome:
    """Untraced server, then the traced launcher, same windows (no
    ladder); per-layer figures from the launcher and ``/stats``."""
    from common import HERE, importtime_metrics
    from layers import PER_LAYER

    proc, port, _ = start_server(ctx, ["-m", "repro.cli", "serve"])
    try:
        untraced, _, growth = measure(ctx, proc, port, ladder=False)
    finally:
        shut_down(proc)
    spans = ctx.work / "serve-spans.json"
    proc, port, _ = start_server(ctx, [str(HERE / "serve_launcher.py"), str(spans)])
    try:
        traced, stats, _ = measure(ctx, proc, port, ladder=False)
    finally:
        shut_down(proc)
    check_oracle(out, list(untraced.values()) + list(traced.values()))
    measured = json.loads(spans.read_text())
    metrics = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
    metrics.update(importtime_metrics(ctx))
    metrics.update(
        {
            "serve.batcher.batches": stats["batch"]["batches"],
            "serve.batcher.mean_width": stats["batch"]["mean_width"],
            "serve.theta.memo_hits": stats["theta"]["memo_hits"],
            "serve.theta.engines": stats["theta"]["engines"],
            "serve.rss_growth_mb": growth,
            "trace.overhead_s": median(pooled(by_kind(traced, "heavy")).latency)
            - median(pooled(by_kind(untraced, "heavy")).latency),
        }
    )
    out.metrics = metrics
    out.report += [w.describe(f"traced {name}") for name, w in traced.items()]
    out.report.append(
        f"serve_open_loop (traced): heavy p50 overhead {metrics['trace.overhead_s'] * 1e3:.3f} ms; "
        f"queue wait {metrics['serve.batcher.queue_wait_s']:.3f} s over {stats['batch']['batched_requests']} requests; "
        f"untraced server rss growth {growth:.2f} MB"
    )
    return out
