"""ARCH002: pool-boundary dataclasses must be frozen and picklable.

``CampaignRunner`` ships :class:`~repro.microbench.campaign.ShardSpec`
to worker processes and gets ``(FittedPlatform, ShardReport)`` back --
everything in those payloads is pickled.  A mutable dataclass invites
aliasing bugs across the fork boundary, and a field holding a callable,
iterator or lock dies inside ``pickle`` with a message far from the
declaration.  In the modules whose dataclasses ride the pool, this rule
requires ``@dataclass(frozen=True)`` and flags field annotations that
name known-unpicklable types.

A type with a custom ``__getstate__``/``__setstate__`` pair (the
``KernelSpec`` trick for its ``MappingProxyType`` traffic view) is fine
-- the rule checks declared *annotations*, and an annotation like
``Mapping[str, float]`` stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..context import ModuleContext
from ..findings import Finding
from .base import Rule, register

#: Modules whose dataclasses cross the process-pool boundary (the
#: ShardSpec/ShardReport payloads and everything reachable from them).
POOL_MODULES = (
    "repro.microbench.campaign",
    "repro.microbench.runner",
    "repro.microbench.suite",
    "repro.telemetry.recorder",
    "repro.faults.plan",
    "repro.machine.kernel",
    # Fleet instances/solutions are solver inputs/outputs that future
    # parallel solvers may ship across a pool; hold them to the same
    # frozen-primitive discipline now.
    "repro.fleet.workload",
    "repro.fleet.evaluate",
    "repro.fleet.solver",
)

#: Simple names that make a pickled field blow up (or silently alias).
_UNPICKLABLE_NAMES = frozenset(
    {
        "Callable",
        "Iterator",
        "Generator",  # typing.Generator: a live generator object.
        "IO",
        "TextIO",
        "BinaryIO",
        "Lock",
        "RLock",
        "Condition",
        "Thread",
        "MappingProxyType",
        "module",
        "ModuleType",
    }
)


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _frozen_true(node: ast.expr) -> bool:
    """Whether a dataclass decorator passes ``frozen=True``."""
    if not isinstance(node, ast.Call):
        return False  # bare @dataclass: frozen defaults to False.
    for keyword in node.keywords:
        if keyword.arg == "frozen":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _annotation_names(annotation: ast.expr) -> Iterable[str]:
    """Every simple/attribute name mentioned in an annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations: parse and recurse so quoting a type
            # does not hide it.
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


def dataclass_shape(node: ast.ClassDef) -> tuple[bool, bool]:
    """``(is_dataclass, frozen)`` from a class's decorators."""
    decorators = [
        d for d in node.decorator_list if _is_dataclass_decorator(d)
    ]
    return bool(decorators), any(_frozen_true(d) for d in decorators)


def annotated_fields(
    node: ast.ClassDef,
) -> Iterator[tuple[ast.AnnAssign, set[str]]]:
    """Each annotated field of a class body, with every name its
    annotation mentions.  ``ClassVar`` declarations are not fields (never
    pickled or fingerprinted) and are skipped."""
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        names = set(_annotation_names(stmt.annotation))
        if "ClassVar" not in names:
            yield stmt, names


class FrozenDataclassRule(Rule):
    """A dataclass must be frozen and name no ``forbidden`` type in a
    field annotation (ARCH002 and ARCH007 differ only in scope, name
    set and wording).

    ``unfrozen_message`` is formatted with ``cls``; ``field_message``
    with ``cls``, ``field`` and ``bad`` (the offending names, sorted and
    comma-joined).
    """

    interests = (ast.ClassDef,)
    forbidden: frozenset[str] = frozenset()
    unfrozen_message = ""
    field_message = ""

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        assert isinstance(node, ast.ClassDef)
        is_dataclass, frozen = dataclass_shape(node)
        if not is_dataclass:
            return
        if not frozen:
            yield self.finding(
                ctx, node, self.unfrozen_message.format(cls=node.name)
            )
        for stmt, names in annotated_fields(node):
            bad = sorted(names & self.forbidden)
            if bad:
                target = (
                    stmt.target.id
                    if isinstance(stmt.target, ast.Name)
                    else ast.unparse(stmt.target)
                )
                yield self.finding(
                    ctx,
                    stmt,
                    self.field_message.format(
                        cls=node.name, field=target, bad=", ".join(bad)
                    ),
                )


@register
class PicklabilityRule(FrozenDataclassRule):
    code = "ARCH002"
    name = "pool-picklability"
    description = (
        "dataclasses in pool-boundary modules must be frozen=True with "
        "picklable field annotations"
    )
    scope = POOL_MODULES
    forbidden = _UNPICKLABLE_NAMES
    unfrozen_message = (
        "dataclass {cls!r} rides the campaign process pool and must be "
        "declared @dataclass(frozen=True)"
    )
    field_message = (
        "field {cls}.{field} is annotated with unpicklable type(s) {bad}: "
        "it cannot cross the process-pool boundary"
    )
