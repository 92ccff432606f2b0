"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into the program's public functions by
wrapping them at the module or class attribute their callers resolve.
Spans must nest strictly (every wrapped function is synchronous), so a
span's *self time* is its duration minus the durations of its direct
children.  Whatever wall time no span covers is reported as ``other``.

Nothing here imports the program: the benchmark decides what to wrap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Collects per-name call counts, self times and free counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []  # [name, start, child seconds]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[["Tracer", Any, tuple, dict], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (undone by
        :meth:`restore`).  ``on_result(tracer, result, args, kwargs)``
        runs after the span closes, to record counts the result carries.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(original) if isinstance(original, (staticmethod, classmethod)) else None
        func = original.__func__ if kind is not None else original

        @functools.wraps(func)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        wrapper = kind(spanned) if kind is not None else spanned
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Flat ``{metric: value}``: ``<name>.calls``, ``<name>.self_s``,
        every counter, and ``other.self_s`` (traced wall time that no
        span covers)."""
        if self._stack:
            raise RuntimeError(f"unclosed spans: {[s[0] for s in self._stack]}")
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = float(self.calls[name])
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        out["other.self_s"] = wall_s - sum(self.self_s.values())
        return out
