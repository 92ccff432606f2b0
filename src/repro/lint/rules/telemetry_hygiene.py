"""ARCH006: telemetry must stay invisible to the physics.

The whole observability design rests on two properties the
trace-on/off differential tests assert: span sites cost nothing when
tracing is off (every ``recorder`` parameter defaults to the shared
no-op ``NULL_RECORDER``), and recording never perturbs the random
streams (recorder code must not touch an RNG).  This rule enforces
both statically:

* any function parameter named ``recorder`` must carry the default
  ``NULL_RECORDER`` -- a required recorder forces callers to plumb
  telemetry, and a ``TraceRecorder()`` default would silently record;
* inside ``repro.telemetry``, any import or attribute reference into
  ``random``/``numpy.random`` is flagged outright.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding
from .base import Rule, register

_RECORDER_PARAM = "recorder"
_TELEMETRY_SCOPE = "repro.telemetry"


def _is_null_recorder_default(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id == "NULL_RECORDER"
    if isinstance(node, ast.Attribute):
        return node.attr == "NULL_RECORDER"
    return False


@register
class TelemetryHygieneRule(Rule):
    code = "ARCH006"
    name = "telemetry-hygiene"
    description = (
        "span-site 'recorder' parameters default to NULL_RECORDER; "
        "recorder code never touches an RNG"
    )
    interests = (
        ast.FunctionDef,
        ast.AsyncFunctionDef,
        ast.Attribute,
        ast.Import,
        ast.ImportFrom,
    )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_signature(node, ctx)
        elif ctx.in_module(_TELEMETRY_SCOPE):
            yield from self._check_rng_reference(node, ctx)

    def _check_signature(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, ctx: ModuleContext
    ) -> Iterable[Finding]:
        args = node.args
        # Pair each positional/kw-only arg with its default (positional
        # defaults right-align against the argument list).
        positional = args.posonlyargs + args.args
        pos_defaults: list[ast.expr | None] = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        pairs = list(zip(positional, pos_defaults)) + list(
            zip(args.kwonlyargs, args.kw_defaults)
        )
        for arg, default in pairs:
            if arg.arg != _RECORDER_PARAM:
                continue
            if default is None:
                yield self.finding(
                    ctx,
                    arg,
                    f"span-site parameter 'recorder' of {node.name!r} has "
                    f"no default: telemetry must be opt-in, default it to "
                    f"NULL_RECORDER",
                )
            elif not _is_null_recorder_default(default):
                yield self.finding(
                    ctx,
                    arg,
                    f"span-site parameter 'recorder' of {node.name!r} "
                    f"defaults to {ast.unparse(default)!r}: default it to "
                    f"the shared no-op NULL_RECORDER",
                )

    def _check_rng_reference(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Finding]:
        message = (
            "recorder code must never touch an RNG (traced and untraced "
            "runs must stay bit-identical): remove the {what} reference"
        )
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random" or alias.name.startswith("numpy.random"):
                    yield self.finding(
                        ctx, node, message.format(what=alias.name)
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                return
            if node.module == "random" or (
                node.module or ""
            ).startswith("numpy.random"):
                yield self.finding(
                    ctx, node, message.format(what=node.module)
                )
        elif isinstance(node, ast.Attribute):
            resolved = ctx.resolve(node)  # None when rooted in a local.
            if resolved and (
                resolved == "numpy.random"
                or resolved.startswith("numpy.random.")
                or resolved.startswith("random.")
            ):
                yield self.finding(ctx, node, message.format(what=resolved))
