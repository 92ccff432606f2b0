"""ARCH001: model paths must be deterministic.

Bit-identical replays (the golden-fit harness, the trace-on/off
differential tests) assume every random draw flows from an explicitly
passed ``numpy.random.Generator`` and every timestamp that can reach a
result comes from the monotonic clock.  Inside the model packages
(``repro.machine``, ``repro.microbench``, ``repro.faults``) this rule
bans:

* module-level RNG state: any ``numpy.random.*`` *function* (``seed``,
  ``rand``, ``normal``, ...).  Constructing explicit generators stays
  legal (``default_rng``, ``SeedSequence``, bit generators, and the
  ``Generator`` type itself);
* the stdlib ``random`` module entirely;
* wall-clock reads: ``time.time``/``time.time_ns`` and the
  ``datetime.now``/``today``/``utcnow`` family.  ``time.perf_counter``
  and ``time.monotonic`` are fine -- span timing wants them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding
from .base import Rule, register

#: numpy.random attributes that build *explicit* generators.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "default_rng",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Wall-clock reads (resolved dotted names) banned in model paths.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


def sink_kind(resolved: str) -> str | None:
    """``"rng"``/``"clock"`` when a resolved dotted name is a banned
    global-RNG or wall-clock use, else ``None``.

    ARCH001 flags these per file; the module summaries record them as
    sinks for the cross-module taint rule (ARCH008).
    """
    if resolved.startswith("numpy.random."):
        leaf = resolved.rsplit(".", 1)[1]
        if leaf != "random" and leaf not in _ALLOWED_NP_RANDOM:
            return "rng"
        return None
    if resolved == "random" or resolved.startswith("random."):
        return "rng"
    if resolved in _WALL_CLOCK:
        return "clock"
    return None


@register
class DeterminismRule(Rule):
    code = "ARCH001"
    name = "determinism"
    description = (
        "no global-state RNG or wall-clock reads in model paths; "
        "randomness arrives as an explicit numpy Generator"
    )
    scope = ("repro.machine", "repro.microbench", "repro.faults")
    interests = (ast.Attribute, ast.Name, ast.ImportFrom)

    def visit(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Finding]:
        if isinstance(node, ast.ImportFrom):
            yield from self._check_import_from(node, ctx)
            return
        assert isinstance(node, (ast.Attribute, ast.Name))
        resolved = ctx.resolve(node)
        if resolved is None:
            return  # rooted in a local or parameter, not a module.
        # Only the full chain is a sink, not its Attribute sub-nodes:
        # the walk dispatches ``np.random.rand`` and its child
        # ``np.random`` separately, and the child must stay silent.
        kind = sink_kind(resolved)
        if kind == "clock":
            yield self.finding(
                ctx,
                node,
                f"wall-clock read {resolved!r} in a model path: use "
                f"time.perf_counter (monotonic) or thread a timestamp in",
            )
        elif kind == "rng" and resolved.startswith("numpy.random."):
            yield self.finding(
                ctx,
                node,
                f"global-state RNG call {resolved!r}: pass an explicit "
                f"numpy.random.Generator instead",
            )
        elif kind == "rng":
            yield self.finding(
                ctx,
                node,
                f"stdlib random module ({resolved!r}) in a model path: "
                f"pass an explicit numpy.random.Generator instead",
            )

    def _check_import_from(
        self, node: ast.ImportFrom, ctx: ModuleContext
    ) -> Iterable[Finding]:
        """``from random import ...`` / ``from time import time``.

        Attribute uses of these bindings resolve through the import
        table, but the bare import itself already smuggles the state
        in, so flag it at the import site.
        """
        if node.module == "random" and not node.level:
            yield self.finding(
                ctx,
                node,
                "import from the stdlib random module in a model path: "
                "pass an explicit numpy.random.Generator instead",
            )
        elif node.module in {"time", "datetime"} and not node.level:
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                if qualified in _WALL_CLOCK or qualified == "datetime.datetime":
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock import {qualified!r} in a model path: "
                        f"use time.perf_counter (monotonic) instead",
                    )
