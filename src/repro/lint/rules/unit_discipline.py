"""ARCH005: no additive arithmetic across physical-unit suffixes.

The package's unit convention (see :mod:`repro.units`) shows up in
identifier names: ``wall_seconds``, ``trace_bytes``, ``eps_flop`` live
next to each other in the same records, and ``energy_joules +
wall_seconds`` type-checks, runs, and corrupts a fit exactly the way a
miscalibrated rail corrupts a PowerMon measurement.  This rule infers a
unit from an identifier's trailing suffix (``_joules``, ``_seconds``,
``_flops``, ``_bytes``, ``_watts``, or the bare suffix itself) and
flags ``+``/``-``/comparison/augmented-assignment expressions whose two
sides carry *different* units.

Multiplication and division are never flagged -- ``joules / seconds``
is how watts are made.  Mixed operands where one side has no inferable
unit (a call result, a plain name) are skipped, so converting through
:mod:`repro.units` (``pJ(...)``, ``to_gflops(...)``) silences the rule
naturally.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding
from .base import Rule, register

_UNIT_SUFFIX_RE = re.compile(
    r"(?:^|_)(joules|seconds|flops|bytes|watts)$"
)


def unit_suffix(identifier: str) -> str:
    """The physical unit an identifier's suffix implies ('' if none)."""
    match = _UNIT_SUFFIX_RE.search(identifier)
    return match.group(1) if match else ""


def unit_of(node: ast.expr) -> str:
    """The unit a Name/Attribute's identifier suffix implies ('' if
    none, or for any other expression)."""
    if isinstance(node, ast.Name):
        return unit_suffix(node.id)
    if isinstance(node, ast.Attribute):
        return unit_suffix(node.attr)
    return ""


@register
class UnitDisciplineRule(Rule):
    code = "ARCH005"
    name = "unit-discipline"
    description = (
        "flag +,-,comparisons mixing identifier unit suffixes "
        "(_joules/_seconds/_flops/_bytes/_watts) without conversion"
    )
    interests = (ast.BinOp, ast.Compare, ast.AugAssign)

    def _check_pair(
        self,
        node: ast.AST,
        left: ast.expr,
        right: ast.expr,
        verb: str,
        ctx: ModuleContext,
    ) -> Iterable[Finding]:
        left_unit, right_unit = unit_of(left), unit_of(right)
        if left_unit and right_unit and left_unit != right_unit:
            yield self.finding(
                ctx,
                node,
                f"{verb} mixes units: {ast.unparse(left)!r} carries "
                f"{left_unit} but {ast.unparse(right)!r} carries "
                f"{right_unit}; convert through repro.units first",
            )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                yield from self._check_pair(
                    node, node.left, node.right, "addition/subtraction", ctx
                )
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                yield from self._check_pair(
                    node, node.target, node.value, "augmented assignment", ctx
                )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, right in zip(operands, operands[1:]):
                yield from self._check_pair(
                    node, left, right, "comparison", ctx
                )
