"""Parallel campaign execution: shard platforms across a process pool.

A full reproduction campaign is embarrassingly parallel across
platforms -- each shard runs one platform's complete Section IV suite
and Section V-A fit, sharing nothing with its siblings.  The
:class:`CampaignRunner` below distributes those shards over a
``concurrent.futures`` process pool and keeps the result *exactly*
reproducible regardless of worker count:

* **Seeding.**  Per-shard generators are spawned from the parent seed
  with :class:`numpy.random.SeedSequence` -- shard ``k`` always gets
  the ``k``-th child of ``SeedSequence(seed)``, keyed to its position
  in the platform list, never to which worker happens to pick it up.
  One worker or sixteen, every shard consumes the same stream.
* **Calibration memoisation.**  Each shard's
  :class:`~repro.microbench.runner.BenchmarkRunner` memoises its
  noise-free calibration dry-runs keyed on kernel shape (the platform
  is implicit: one runner per shard), and the sweeps prime that cache
  through the vectorised :meth:`~repro.machine.engine.Engine.run_batch`
  path.
* **Counters.**  Every shard reports its run count, wall time and
  :class:`~repro.microbench.runner.RunCounters` (calibration hits and
  misses, fault/retry/quarantine totals); the aggregate lands in
  :attr:`CampaignRunner.report`, whose ``workers`` field records the
  *actual* pool width so ``parallel_efficiency`` is normalised
  honestly.
* **Telemetry.**  With ``trace=True`` every shard records nested
  spans (shard -> campaign -> sweep -> run -> calibrate / engine /
  measure / validate, plus per-model fit spans) on a
  :class:`~repro.telemetry.recorder.TraceRecorder`; the spans ship
  back inside each :class:`ShardReport` and can be exported as JSONL
  (:mod:`repro.telemetry.jsonl`) or rendered as a flame-style
  wall-time breakdown (:mod:`repro.telemetry.summary`).  The default
  no-op recorder leaves results bit-for-bit identical.
* **Incrementality.**  With ``cache_dir`` set every shard is keyed in
  a content-addressed store (:mod:`repro.store`, docs/CACHE.md):
  lookups before compute, publication after, hit/miss/stale counters
  in every :class:`ShardReport`.  Replayed shards are bit-identical to
  computed ones -- the cache changes *whether* a shard runs, never
  what it produces.
* **Resilience.**  A shard that raises, crashes its worker process or
  misses the ``shard_timeout`` deadline is quarantined -- recorded in
  the report with a named status and excluded from the returned fits
  -- instead of killing the campaign.  Per-run faults (from a seeded
  :class:`~repro.faults.plan.FaultPlan`) are retried and quarantined
  at cell granularity inside each shard by
  :class:`~repro.microbench.runner.BenchmarkRunner`.

Every shard runs the same campaign-and-fit recipe as the sequential
per-platform path (:func:`repro.microbench.suite.fit_platform`); the
two differ only in the seed (the shard's spawned child seed instead of
``settings.seed``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..machine.platforms import PLATFORM_IDS, platform
from ..store.fingerprint import shard_key
from ..store.store import CampaignStore
from ..telemetry.jsonl import trace_bytes as _trace_bytes
from ..telemetry.recorder import (
    NULL_RECORDER,
    SpanRecord,
    SpanTable,
    TraceRecorder,
)
from .runner import BenchmarkRunner, QuarantinedCell, RunCounters
from .suite import CampaignSettings, FittedPlatform, fit_platform

__all__ = [
    "ShardSpec",
    "ShardReport",
    "CampaignReport",
    "CampaignRunner",
    "shard_seeds",
    "run_shard",
]


def shard_seeds(seed: int, n: int) -> list[int]:
    """Per-shard integer seeds spawned from one parent seed.

    Shard ``k`` gets a seed derived from the ``k``-th child of
    ``SeedSequence(seed)``; the mapping depends only on ``(seed, k)``,
    so campaign results are independent of worker count and scheduling
    order.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


@dataclass(frozen=True)
class ShardSpec:
    """One unit of parallel campaign work: a platform plus its settings."""

    platform_id: str
    #: The campaign settings, with ``seed`` replaced by this shard's
    #: spawned seed (see :func:`shard_seeds`).
    settings: CampaignSettings
    trace: bool = False  #: record telemetry spans for this shard.
    #: Content-addressed store directory (docs/CACHE.md); ``None``
    #: disables caching.  Excluded (with ``cache_refresh`` and
    #: ``trace``) from the shard's cell key -- caching must never
    #: change what is computed, only whether it is recomputed.
    cache_dir: str | None = None
    cache_refresh: bool = False  #: recompute and republish even on a hit.


@dataclass(frozen=True)
class ShardReport:
    """Progress/timing/fault counters one shard reports.

    ``counters`` satisfy ``RunCounters.check(n_runs, len(quarantined))``
    (every attempt was accepted or failed, every failed attempt was
    either retried or retired its cell); :meth:`checked_counters` is
    what exporters read.
    """

    platform_id: str
    seed: int
    n_runs: int  #: observations accepted into the campaign.
    wall_seconds: float
    status: str = "ok"  #: "ok" | "failed" | "timeout".
    error: str = ""  #: failure message when status != "ok".
    counters: RunCounters = RunCounters()
    quarantined: tuple[QuarantinedCell, ...] = ()
    #: Store counters (all zero when the shard ran uncached).  A shard
    #: is all-or-nothing, so ``cache_hits + cache_misses <= 1``;
    #: ``cache_stale`` counts corrupt/foreign entries evicted on the
    #: way (each also produced the miss that recomputed the cell).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale: int = 0
    trace_bytes: int = 0  #: JSONL-encoded size of ``spans``, bytes.
    #: Telemetry spans this shard recorded (empty unless the spec set
    #: ``trace``).  Shipped across the pool boundary as a columnar
    #: :class:`~repro.telemetry.recorder.SpanTable` (a fraction of the
    #: pickle bytes of per-span records); iterating yields
    #: :class:`~repro.telemetry.recorder.SpanRecord` rows either way.
    spans: SpanTable | tuple[SpanRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def checked_counters(self) -> RunCounters:
        """``counters``, after checking the accounting identities.

        Raises ``ValueError`` naming this shard when they fail.
        """
        try:
            self.counters.check(self.n_runs, len(self.quarantined))
        except ValueError as err:
            raise ValueError(f"shard {self.platform_id!r}: {err}") from None
        return self.counters


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate counters of one parallel campaign.

    ``shards`` always holds one report per requested platform, in
    platform order -- including shards that failed or timed out, so the
    aggregate accounts for every attempted cell.
    """

    shards: tuple[ShardReport, ...]
    #: The *actual* pool width: ``min(max_workers, len(shards))`` for a
    #: pool run, 1 inline -- not the requested ``max_workers``, which
    #: would understate :attr:`parallel_efficiency` whenever fewer
    #: shards than workers exist.
    workers: int
    wall_seconds: float  #: end-to-end wall time of the whole campaign.

    @property
    def n_runs(self) -> int:
        return sum(shard.n_runs for shard in self.shards)

    @property
    def shard_seconds(self) -> float:
        """Summed per-shard wall time (the sequential-equivalent cost)."""
        return sum(shard.wall_seconds for shard in self.shards)

    @property
    def parallel_efficiency(self) -> float:
        """``shard_seconds / (workers * wall_seconds)``, 1.0 = ideal."""
        if self.wall_seconds <= 0.0 or self.workers <= 0:
            return 0.0
        return self.shard_seconds / (self.workers * self.wall_seconds)

    # -- resilience aggregates ----------------------------------------

    @property
    def ok(self) -> bool:
        """Whether every shard completed (cells may still be dropped)."""
        return all(shard.ok for shard in self.shards)

    @property
    def failed_shards(self) -> tuple[ShardReport, ...]:
        """Shards that failed or timed out (their platforms have no fit)."""
        return tuple(shard for shard in self.shards if not shard.ok)

    @property
    def quarantined_cells(self) -> tuple[QuarantinedCell, ...]:
        """Every retired (benchmark, kernel) cell across all shards."""
        return tuple(c for shard in self.shards for c in shard.quarantined)

    @property
    def counters(self) -> RunCounters:
        """Every shard's run counters, summed field by field."""
        return sum((shard.counters for shard in self.shards), RunCounters())

    # -- store aggregates ---------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Shards replayed from the content-addressed store."""
        return sum(shard.cache_hits for shard in self.shards)

    @property
    def cache_misses(self) -> int:
        """Shards that consulted the store and had to compute."""
        return sum(shard.cache_misses for shard in self.shards)

    @property
    def cache_stale(self) -> int:
        """Corrupt/foreign store entries evicted during lookups."""
        return sum(shard.cache_stale for shard in self.shards)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- telemetry aggregates -----------------------------------------

    @property
    def trace_bytes(self) -> int:
        return sum(shard.trace_bytes for shard in self.shards)

    @property
    def traced(self) -> bool:
        """Whether any shard shipped telemetry spans."""
        return any(shard.spans for shard in self.shards)

    def describe_losses(self) -> str:
        """Human-readable account of everything that was dropped."""
        lines = []
        for shard in self.failed_shards:
            lines.append(
                f"shard {shard.platform_id}: {shard.status} ({shard.error})"
            )
        for cell in self.quarantined_cells:
            lines.append(f"quarantined {cell.describe()}")
        return "\n".join(lines) if lines else "nothing dropped"


def run_shard(spec: ShardSpec) -> tuple[FittedPlatform, ShardReport]:
    """Run one platform's full campaign and fit (pool worker body).

    Module-level so the process pool can pickle it; also callable
    inline for ``max_workers=1``, which must produce bit-identical
    results.  The shard's fault injector is keyed on the shard seed, so
    shards sharing one plan corrupt independently yet reproducibly for
    any worker count.

    With ``spec.trace`` set the whole shard runs under a
    :class:`~repro.telemetry.recorder.TraceRecorder` -- a ``shard``
    root span containing the ``campaign`` (per-sweep, per-run,
    calibrate/engine/measure/validate) and ``fit`` subtrees -- and the
    resulting spans travel back inside the :class:`ShardReport`.  The
    recorder never touches the random streams, so traced and untraced
    shards produce bit-identical fits.

    With ``spec.cache_dir`` set the shard is *incremental*: its cell
    key (:func:`repro.store.fingerprint.shard_key`) is looked up in the
    content-addressed store first -- recorded as a ``cache_lookup``
    span -- and a hit replays the cached ``(fit, report)`` pair
    bit-identically instead of computing; a miss computes as usual and
    publishes the result under a ``cache_store`` span.  Cached entries
    carry the original compute counters but never spans (telemetry is
    per-execution, not content), and ``wall_seconds`` always reports
    *this* invocation's time.
    """
    started = time.perf_counter()
    settings = spec.settings
    recorder = TraceRecorder() if spec.trace else NULL_RECORDER
    config = platform(spec.platform_id)
    store: CampaignStore | None = None
    key = ""
    if spec.cache_dir is not None:
        store = CampaignStore(spec.cache_dir)
        key = shard_key(config, spec)
        if not spec.cache_refresh:
            with recorder.span(
                "cache_lookup", platform=spec.platform_id, key=key[:12]
            ):
                cached = store.get(key, kind="shard")
            if cached is not None:
                fitted, cached_report = cached
                spans = recorder.records()
                report = replace(
                    cached_report,
                    wall_seconds=time.perf_counter() - started,
                    cache_hits=1,
                    cache_stale=store.stale,
                    trace_bytes=_trace_bytes(spec.platform_id, spans),
                    spans=SpanTable.from_records(spans) if spans else (),
                )
                return fitted, report
    runner = BenchmarkRunner(
        config,
        seed=settings.seed,
        target_duration=settings.target_duration,
        faults=settings.faults,
        max_retries=settings.max_retries,
        recorder=recorder,
    )
    with recorder.span("shard", platform=spec.platform_id):
        fitted = fit_platform(
            config, settings, runner=runner, recorder=recorder
        )
    # The publishable report: compute counters only.  Spans, trace
    # bytes and cache counters describe *this execution*, not the
    # shard's content, so they stay out of the store -- replay attaches
    # its own.
    base = ShardReport(
        platform_id=spec.platform_id,
        seed=settings.seed,
        n_runs=fitted.campaign.n_runs,
        wall_seconds=time.perf_counter() - started,
        counters=runner.counters,
        quarantined=tuple(runner.quarantined),
    )
    if store is not None:
        with recorder.span(
            "cache_store", platform=spec.platform_id, key=key[:12]
        ):
            store.put(
                key, (fitted, base), kind="shard", platform=spec.platform_id
            )
    spans = recorder.records()
    shipped = SpanTable.from_records(spans) if spans else ()
    report = replace(
        base,
        wall_seconds=time.perf_counter() - started,
        cache_misses=1 if store is not None else 0,
        cache_stale=store.stale if store is not None else 0,
        trace_bytes=_trace_bytes(spec.platform_id, spans),
        spans=shipped,
    )
    return fitted, report


def _failed_report(
    spec: ShardSpec, status: str, error: str, wall_seconds: float
) -> ShardReport:
    """The report of a shard that produced no fit."""
    return ShardReport(
        platform_id=spec.platform_id,
        seed=spec.settings.seed,
        n_runs=0,
        wall_seconds=wall_seconds,
        status=status,
        error=error,
    )


class CampaignRunner:
    """Runs per-platform campaign shards, optionally in parallel.

    Parameters
    ----------
    platform_ids:
        Platforms to shard over (default: all twelve).
    settings:
        Campaign knobs forwarded to every shard (default
        :class:`~repro.microbench.suite.CampaignSettings`).  Its
        ``seed`` is the parent seed; each shard draws its own child
        seed from it via :func:`shard_seeds`, so results do not depend
        on worker count.
    max_workers:
        Process-pool width; ``1`` runs the shards inline in this
        process (still with spawned per-shard seeds, so the results
        are identical to any parallel run).  Default: one worker per
        shard, capped at the machine's CPU count.
    shard_timeout:
        Deadline in seconds each shard must meet, measured from
        campaign start.  Shards still unfinished at the deadline are
        quarantined (status ``"timeout"``) and excluded from the
        returned fits; under a pool the stragglers are abandoned
        without waiting.  Inline (``max_workers=1``) a running shard
        cannot be interrupted, so the deadline is enforced between
        shards.  ``None`` disables it.
    shard_fn:
        The shard execution body (default :func:`run_shard`).  A seam
        for tests and extensions; must be a picklable module-level
        callable when a process pool is used.
    trace:
        Record telemetry spans in every shard (see
        :func:`run_shard`); the spans come back inside each
        :class:`ShardReport` and can be exported with
        :func:`repro.telemetry.jsonl.write_trace` or rendered with
        :func:`repro.telemetry.summary.render_summary`.  Off by
        default -- the no-op recorder keeps results bit-identical.
    cache_dir:
        Content-addressed store directory (docs/CACHE.md).  Each shard
        consults the store before computing and publishes after, so a
        re-run with an unchanged configuration replays every shard
        bit-identically from disk; editing one platform recomputes only
        that platform's shard.  ``None`` (default) disables caching.
    cache_refresh:
        Skip store lookups but still publish: every shard recomputes
        and overwrites its entry.  Requires ``cache_dir``.
    """

    def __init__(
        self,
        platform_ids: Sequence[str] | None = None,
        *,
        settings: CampaignSettings | None = None,
        max_workers: int | None = None,
        shard_timeout: float | None = None,
        shard_fn: Callable[[ShardSpec], tuple[FittedPlatform, ShardReport]] = run_shard,
        trace: bool = False,
        cache_dir: str | os.PathLike[str] | None = None,
        cache_refresh: bool = False,
    ) -> None:
        self.platform_ids = tuple(
            PLATFORM_IDS if platform_ids is None else platform_ids
        )
        if not self.platform_ids:
            raise ValueError("need at least one platform")
        unknown = [p for p in self.platform_ids if p not in PLATFORM_IDS]
        if unknown:
            raise ValueError(f"unknown platform ids: {unknown}")
        if len(set(self.platform_ids)) != len(self.platform_ids):
            # Shard k's seed is keyed to list position and the results
            # are keyed by platform id: duplicates would silently run
            # twice and collapse into one entry.
            raise ValueError("duplicate platform ids")
        if max_workers is None:
            max_workers = min(len(self.platform_ids), os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if shard_timeout is not None and not shard_timeout > 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if cache_refresh and cache_dir is None:
            raise ValueError("cache_refresh requires cache_dir")
        self.settings = CampaignSettings() if settings is None else settings
        self.max_workers = max_workers
        self.shard_timeout = shard_timeout
        self.shard_fn = shard_fn
        self.trace = trace
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.cache_refresh = cache_refresh
        self.report: CampaignReport | None = None
        #: Errors raised by the user ``progress`` callback during the
        #: last :meth:`run` (swallowed so they cannot abandon the
        #: pool), as ``"platform: ExcType: message"`` strings.
        self.progress_errors: tuple[str, ...] = ()

    def shard_specs(self) -> list[ShardSpec]:
        """The shard list, in platform order with spawned seeds."""
        seeds = shard_seeds(self.settings.seed, len(self.platform_ids))
        return [
            ShardSpec(
                platform_id=pid,
                settings=replace(self.settings, seed=shard_seed),
                trace=self.trace,
                cache_dir=self.cache_dir,
                cache_refresh=self.cache_refresh,
            )
            for pid, shard_seed in zip(self.platform_ids, seeds)
        ]

    def _run_inline(
        self,
        specs: list[ShardSpec],
        started: float,
        emit: Callable[[str, FittedPlatform | None, ShardReport], None],
    ) -> None:
        deadline = (
            None if self.shard_timeout is None else started + self.shard_timeout
        )
        for spec in specs:
            if deadline is not None and time.perf_counter() >= deadline:
                emit(
                    spec.platform_id,
                    None,
                    _failed_report(
                        spec,
                        "timeout",
                        f"not started before the {self.shard_timeout:.1f}s "
                        f"deadline",
                        0.0,
                    ),
                )
                continue
            shard_started = time.perf_counter()
            try:
                fitted, shard_report = self.shard_fn(spec)
            except Exception as err:  # shard isolation: one platform down
                emit(
                    spec.platform_id,
                    None,
                    _failed_report(
                        spec,
                        "failed",
                        f"{type(err).__name__}: {err}",
                        time.perf_counter() - shard_started,
                    ),
                )
            else:
                emit(spec.platform_id, fitted, shard_report)

    def _run_pool(
        self,
        specs: list[ShardSpec],
        emit: Callable[[str, FittedPlatform | None, ShardReport], None],
        workers: int,
    ) -> None:
        pool = ProcessPoolExecutor(max_workers=workers)
        # Shards abandoned mid-run cannot report their own wall time,
        # so they are accounted from submission: the time a shard
        # burned before the campaign gave up on it.  Shards whose
        # future cancels cleanly at the deadline never ran at all and
        # are charged 0.0 -- charging them the queue time would
        # inflate ``CampaignReport.shard_seconds`` (and with it
        # ``parallel_efficiency``) with work nobody performed.
        submitted = time.perf_counter()
        futures = {pool.submit(self.shard_fn, spec): spec for spec in specs}
        done: set[str] = set()
        timed_out = False
        try:
            for future in as_completed(futures, timeout=self.shard_timeout):
                spec = futures[future]
                try:
                    fitted, shard_report = future.result()
                except Exception as err:  # worker crashed or shard raised
                    fitted = None
                    shard_report = _failed_report(
                        spec,
                        "failed",
                        f"{type(err).__name__}: {err}",
                        time.perf_counter() - submitted,
                    )
                done.add(spec.platform_id)
                emit(spec.platform_id, fitted, shard_report)
        # On 3.10, as_completed raises concurrent.futures.TimeoutError,
        # which only became an alias of the builtin in 3.11.
        except (TimeoutError, FuturesTimeoutError):
            # Deadline hit: quarantine every unfinished shard.  Queued
            # futures are cancelled; ones already running on a worker
            # are abandoned (shutdown below does not wait for them).
            # Each gets the elapsed-at-deadline time, not the nominal
            # ``shard_timeout``: the deadline may fire late, and the
            # report should account for time actually burned.
            timed_out = True
            elapsed = time.perf_counter() - submitted
            for future, spec in futures.items():
                if spec.platform_id in done:
                    continue
                # A successful cancel() means the shard was still
                # queued: it never ran, so it burned no shard time and
                # is charged 0.0.  Only shards already running on a
                # worker (cancel() fails) are charged the elapsed time
                # they actually consumed before being abandoned.
                cancelled = future.cancel()
                if cancelled:
                    error = (
                        f"not started before the {self.shard_timeout:.1f}s "
                        f"deadline"
                    )
                else:
                    error = (
                        f"unfinished at the {self.shard_timeout:.1f}s "
                        f"deadline"
                    )
                emit(
                    spec.platform_id,
                    None,
                    _failed_report(
                        spec,
                        "timeout",
                        error,
                        0.0 if cancelled else elapsed,
                    ),
                )
        finally:
            # shutdown(wait=False) leaves workers mid-shard alive, and
            # the executor's atexit hook would join them -- blocking
            # interpreter exit long past the deadline.  Their futures
            # are already quarantined above, so kill the stragglers
            # outright.  Snapshot before shutdown(): it nulls
            # ``_processes`` even with ``wait=False``.
            stragglers = (
                list((getattr(pool, "_processes", None) or {}).values())
                if timed_out
                else []
            )
            pool.shutdown(wait=not timed_out, cancel_futures=True)
            for proc in stragglers:
                proc.terminate()

    def run(
        self,
        progress: Callable[[ShardReport], None] | None = None,
    ) -> dict[str, FittedPlatform]:
        """Run every shard and return fits keyed by platform id.

        ``progress`` (if given) is called with each shard's
        :class:`ShardReport` as it completes -- out of order under a
        pool; the returned dict is always in platform order.  The
        aggregate :class:`CampaignReport` is stored on :attr:`report`.

        The campaign *never* dies with a shard: a shard that raises,
        crashes its worker, or misses the deadline is recorded in the
        report with status ``"failed"``/``"timeout"`` and its platform
        is simply absent from the returned fits -- graceful degradation
        with every loss named in :meth:`CampaignReport.describe_losses`.
        The same isolation covers the ``progress`` callback itself: an
        exception it raises mid-campaign would otherwise abandon live
        pool workers and leave :attr:`report` unset, so it is caught,
        recorded on :attr:`progress_errors`, and the campaign carries
        on.
        """
        specs = self.shard_specs()
        inline = self.max_workers == 1 or len(specs) == 1
        # The *actual* pool width -- what parallel_efficiency must be
        # normalised by.  A pool never grows wider than the shard list,
        # and the inline path is one worker regardless of max_workers.
        workers = 1 if inline else min(self.max_workers, len(specs))
        started = time.perf_counter()
        outcomes: dict[str, tuple[FittedPlatform | None, ShardReport]] = {}
        progress_errors: list[str] = []
        self.progress_errors = ()

        def emit(
            pid: str, fitted: FittedPlatform | None, shard_report: ShardReport
        ) -> None:
            outcomes[pid] = (fitted, shard_report)
            if progress is not None:
                try:
                    progress(shard_report)
                except Exception as err:
                    progress_errors.append(
                        f"{pid}: {type(err).__name__}: {err}"
                    )

        if inline:
            self._run_inline(specs, started, emit)
        else:
            self._run_pool(specs, emit, workers)
        self.progress_errors = tuple(progress_errors)
        self.report = CampaignReport(
            shards=tuple(
                outcomes[pid][1] for pid in self.platform_ids
            ),
            workers=workers,
            wall_seconds=time.perf_counter() - started,
        )
        return {
            pid: outcome[0]
            for pid in self.platform_ids
            if (outcome := outcomes[pid])[0] is not None
        }
