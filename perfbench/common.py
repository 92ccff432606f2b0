"""Shared plumbing: run context, outcomes, subprocesses, memory."""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


#: Seconds any child process gets to exit after it is asked to.
STOP_TIMEOUT_S = 15.0


@dataclass
class Context:
    """What every workload is handed."""

    root: Path  #: checkout root (holds ``src/repro``).
    work: Path  #: scratch directory inside the checkout, removed after.
    seed: int
    seconds: float  #: measurement budget of this run.
    trace: bool

    def python_env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # A campaign store named by the caller's environment would make
        # the server and CLI read outside the checkout.
        env.pop("ARCHLINE_CACHE", None)
        return env


@dataclass
class Outcome:
    """One workload run: operation counts, metrics and report lines."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  #: failed output checks.
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record ``what`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def spawn(ctx: Context, args: list[str], **kwargs: Any) -> subprocess.Popen:
    """Start ``python <args>`` from the checkout root with ``src`` on
    the import path."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ctx.root,
        env=ctx.python_env(),
        text=True,
        **kwargs,
    )


def wait_for_line(proc: subprocess.Popen, stream: Any, marker: str, timeout: float) -> str:
    """Read ``stream`` until a line containing ``marker``; raises if the
    process exits or ``timeout`` passes first.  Reads the raw file
    descriptor, so the pipe's own buffer is never used."""
    fd = stream.fileno()
    deadline = time.monotonic() + timeout
    pending = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"no {marker!r} within {timeout} s")
        if not select.select([fd], [], [], remaining)[0]:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            raise RuntimeError(f"process exited (code {proc.wait()}) before {marker!r}")
        pending += chunk
        *lines, pending = pending.split(b"\n")
        for line in lines:
            if marker in line.decode("utf-8", "replace"):
                return line.decode("utf-8", "replace")


def stop(proc: subprocess.Popen, sig: int = signal.SIGINT) -> int:
    """Signal ``proc`` and wait for it; kill it if it lingers."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def probe_setup(ctx: Context, workload: str, *extra: str) -> float:
    """Seconds from spawning a fresh interpreter that runs
    ``probe.py <workload>`` until it reports ready."""
    started = time.perf_counter()
    proc = spawn(ctx, [str(HERE / "probe.py"), workload, *extra], stdout=subprocess.PIPE)
    try:
        wait_for_line(proc, proc.stdout, "ready", timeout=150.0)
        elapsed = time.perf_counter() - started
        proc.communicate(timeout=STOP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


def passes_within(seconds: float, minimum: int = 2) -> Iterator[int]:
    """Yield pass numbers while one more pass, as long as the longest so
    far, still ends within ``seconds`` (and at least ``minimum`` times);
    the loop body is the pass."""
    started = time.perf_counter()
    longest, n = 0.0, 0
    while n < minimum or time.perf_counter() - started + longest <= seconds:
        begun = time.perf_counter()
        yield n
        longest = max(longest, time.perf_counter() - begun)
        n += 1


def setup_times(speed: "HostSpeed", repeats: int, start: Callable[[], float]) -> tuple[list[float], list[float]]:
    """``(wall, corrected)`` seconds of ``repeats`` calls of ``start``,
    which sets up once and returns its spawn-to-ready seconds."""
    walls, corrected = [], []
    for _ in range(repeats):
        seconds, f = speed.measure(start)
        walls.append(seconds)
        corrected.append(seconds * f)
    return walls, corrected


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_memory_mb(pid: int) -> tuple[float, float]:
    """``(current RSS, peak RSS)`` of a live process, from /proc."""
    fields = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, value = line.partition(":")
        if key in ("VmRSS", "VmHWM"):
            fields[key] = float(value.split()[0]) / 1024.0
    return fields["VmRSS"], fields["VmHWM"]


def importtime_metrics(ctx: Context) -> dict[str, float]:
    """Cumulative import seconds of ``repro.cli``, ``scipy.optimize``
    and ``numpy`` in a fresh interpreter (``python -X importtime``)."""
    proc = spawn(
        ctx,
        ["-X", "importtime", "-c", "import repro.cli"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    _, err = proc.communicate(timeout=120)
    wanted = {"repro.cli": "import.repro_cli_s", "scipy.optimize": "import.scipy_optimize_s", "numpy": "import.numpy_s"}
    out = {metric: 0.0 for metric in wanted.values()}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in wanted:
            out[wanted[parts[2].strip()]] = int(parts[1]) / 1e6
    return out
