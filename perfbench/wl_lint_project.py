"""``lint_project``: ``archline lint --project src/repro --jobs 2``.

A cycle is one cold pass (empty summary cache: analysis in two worker
processes plus cache writes) and one warm pass over the same cache
(every file a cache hit).  Cycles repeat for the run's seconds; each
pass is corrected for the host's speed (``hostspeed``) and each pass
kind reports its median.  The input is the program's own source tree;
``--seed`` does not change it.

End-to-end metrics: ``heavy_ms`` is a cold pass, ``light_ms`` a warm
pass, ``rate_per_s`` files linted per second cold, ``good_share`` the
warm passes' lowest cache hit rate.  ``setup_s`` (corrected too) is
fresh interpreter to imports done.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import time
from pathlib import Path

from common import SETUP_REPEATS, Context, Outcome, passes_within, probe_setup, self_peak_rss_mb, setup_times
from hostspeed import HostSpeed
from stats import column_medians, median

TARGET = "src/repro"
JOBS = 2
_STATS = re.compile(r"files=(\d+) cache_hits=(\d+) analyzed=(\d+)")


def lint_pass(cache: Path, baseline: Path) -> tuple[int, str, tuple[int, int, int]]:
    """One in-process ``archline lint`` pass: ``(exit code, stdout,
    (files, cache hits, analysed))``."""
    from repro.lint.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(
            ["--project", TARGET, "--jobs", str(JOBS), "--cache", str(cache),
             "--format", "json", "--baseline", str(baseline)]
        )
    match = _STATS.search(stderr.getvalue())
    counts = tuple(int(g) for g in match.groups()) if match else (0, 0, 0)
    return code, stdout.getvalue(), counts


class Cycles:
    """Cold/warm cycles with their output checks."""

    def __init__(self, ctx: Context, out: Outcome, speed: HostSpeed) -> None:
        from repro.lint.baseline import load_baseline

        self.ctx, self.out, self.speed = ctx, out, speed
        self.shipped = load_baseline(ctx.root / "archlint.baseline.json")
        # An empty baseline, so the pass reports every finding and the
        # check below compares the full set against the shipped one.
        self.empty = ctx.work / "empty-baseline.json"
        self.empty.write_text(json.dumps({"findings": [], "version": 1}))
        self.n = 0

    def cycle(self) -> tuple[list[float], list[float], int, int]:
        """``([cold, warm] corrected s, [cold, warm] wall s, files, warm
        cache hits)``."""
        cache = self.ctx.work / f"cache-{self.n}"
        self.n += 1
        (code_c, json_c, (files, hits_c, analysed)), cold_wall, cold = self.speed.timed(
            lambda: lint_pass(cache, self.empty)
        )
        (code_w, json_w, (_, hits_w, reanalysed)), warm_wall, warm = self.speed.timed(
            lambda: lint_pass(cache, self.empty)
        )
        check = self.out.check
        found = {f["fingerprint"] for f in json.loads(json_c)["findings"]} if json_c else None
        check(found == self.shipped, f"cold findings differ from the shipped baseline: {found}")
        check(code_c == (1 if found else 0), f"cold pass exit code {code_c}")
        check(files > 0 and hits_c == 0 and analysed == files, f"cold pass stats {files} {hits_c} {analysed}")
        check(json_w == json_c, "warm JSON differs from cold JSON")
        check(code_w == code_c, f"warm pass exit code {code_w}")
        check(hits_w == files and reanalysed == 0, f"warm pass stats {hits_w} {reanalysed}")
        return [cold, warm], [cold_wall, warm_wall], files, hits_w


def run(ctx: Context) -> Outcome:
    out = Outcome()
    if ctx.trace:
        return run_traced(ctx, out)
    speed = HostSpeed()
    setup_walls, setups = setup_times(speed, SETUP_REPEATS, lambda: probe_setup(ctx, "lint_project"))
    import repro.cli  # noqa: F401  -- the set-up the probes timed.

    cycles = Cycles(ctx, out, speed)
    passes, walls, hit_rates, files = [], [], [], 0
    for _ in passes_within(ctx.seconds):
        corrected, wall, files, hits = cycles.cycle()
        passes.append(corrected)
        walls.append(wall)
        hit_rates.append(hits / files)
    cold, warm = column_medians(passes)
    cold_wall, warm_wall = column_medians(walls)
    out.metrics.update(
        setup_s=median(setups),
        peak_rss_mb=self_peak_rss_mb(),
        heavy_ms=cold * 1e3,
        light_ms=warm * 1e3,
        rate_per_s=files / cold,
        good_share=min(hit_rates),
    )
    out.report += [
        f"lint_project: lint_cold_s {cold:.4f} s, lint_warm_s {warm:.4f} s corrected; "
        f"{cold_wall:.4f} s, {warm_wall:.4f} s wall (medians of {len(passes)} cycles; "
        f"{files} files, --jobs {JOBS})",
        f"lint_project: setup_s {median(setups):.4f} s corrected, {median(setup_walls):.4f} s wall "
        f"(medians of {len(setups)}); peak_rss_mb {self_peak_rss_mb():.1f} MB",
    ]
    return out


def run_traced(ctx: Context, out: Outcome) -> Outcome:
    """One untraced cycle, then one traced cycle.

    ``analyze_file_payload`` runs in the pool's forked workers, where
    spans cannot reach this process's tracer: its wrapper appends each
    call's seconds to a file instead, reported as worker time (it
    overlaps this process's wall time, so it is not part of ``other``).
    """
    from common import importtime_metrics
    from layers import install, layer_report
    from tracer import Tracer

    import repro.lint.project.engine as engine

    cycles = Cycles(ctx, out, HostSpeed())
    _, untraced, _, _ = cycles.cycle()
    tracer = Tracer()
    install(tracer, "lint")
    log = ctx.work / "worker-spans.txt"
    original = engine.analyze_file_payload

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {time.perf_counter() - started!r}\n")

    engine.analyze_file_payload = timed
    try:
        _, (cold, warm), _, _ = cycles.cycle()
    finally:
        engine.analyze_file_payload = original
        tracer.restore()
    seconds = [float(line.split()[1]) for line in log.read_text().splitlines()] if log.exists() else []
    tracer.add("lint.project.analyze_file_payload.calls", len(seconds))
    tracer.add("lint.project.analyze_file_payload.self_s", sum(seconds))
    metrics = layer_report(tracer, cold + warm)
    metrics.update(importtime_metrics(ctx))
    metrics["trace.wall_s"] = cold + warm
    metrics["trace.overhead_s"] = (cold + warm) - sum(untraced)
    out.metrics = metrics
    out.report.append(
        f"lint_project (traced): cold {cold:.3f} s, warm {warm:.3f} s; "
        f"{len(seconds)} worker analyses, {sum(seconds):.3f} s worker time; "
        f"overhead {metrics['trace.overhead_s']:.3f} s"
    )
    return out
