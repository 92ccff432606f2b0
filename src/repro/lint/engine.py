"""The per-file rule walk and file collection.

One :class:`ModuleContext` is built per file and the AST is walked
*once*; each node is dispatched to the rules that declared interest in
its type (see :mod:`repro.lint.rules.base`).  Findings suppressed
inline are dropped here -- the baseline layer
(:mod:`repro.lint.baseline`) only ever sees live findings.  The driver
that runs this walk over a tree, caches it and adds the whole-program
rules is :func:`repro.lint.project.lint_project`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence, Type

from .context import ModuleContext
from .findings import Finding
from .rules import load_builtin_rules
from .rules.base import Rule, rules_for


def _dedupe(findings: Iterable[Finding]) -> list[Finding]:
    """Drop same-rule duplicates at one location (an attribute chain
    can dispatch both the chain and its root to one rule)."""
    seen: set[tuple[str, int, int, str]] = set()
    out = []
    for finding in findings:
        key = (finding.path, finding.line, finding.col, finding.code)
        if key in seen:
            continue
        seen.add(key)
        out.append(finding)
    return out


def lint_context(
    ctx: ModuleContext, rule_classes: Sequence[Type[Rule]] | None = None
) -> list[Finding]:
    """Run rules over one parsed module; returns unsuppressed findings
    sorted by location."""
    if rule_classes is None:
        rule_classes = list(rules_for())
    instances = (cls() for cls in rule_classes)
    rules = [rule for rule in instances if rule.applies(ctx)]
    if not rules:
        return []
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.start(ctx))
    interested = [(rule, rule.interests) for rule in rules if rule.interests]
    for node in ast.walk(ctx.tree):
        for rule, interests in interested:
            if isinstance(node, interests):
                findings.extend(rule.visit(node, ctx))
    for rule in rules:
        findings.extend(rule.finish(ctx))
    live = [
        finding
        for finding in _dedupe(findings)
        if not ctx.is_suppressed(finding.code, finding.line)
    ]
    return sorted(live)


def lint_source(
    source: str,
    *,
    module: str = "",
    path: str = "<string>",
    codes: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint a source string as if it were the named module.

    The fixture entry point: tests pass ``module="repro.machine.x"`` to
    land inside a scoped rule's territory without touching disk.
    """
    load_builtin_rules()
    ctx = ModuleContext.from_source(source, path=path, module=module)
    return lint_context(ctx, list(rules_for(codes)))


def collect_files(paths: Sequence[str]) -> list[Path]:
    """Expand files/directories into a deduplicated .py list.

    Directories expand in sorted order.  A file reachable under two
    spellings (``pkg/src`` and ``$PWD/pkg/src``) is listed once, under
    the first spelling given.  Raises ``FileNotFoundError`` for a path
    that does not exist (the CLI reports it and exits 2).
    """
    out: dict[Path, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.rglob("*.py"))
        elif path.is_file():
            found = [path]
        else:
            raise FileNotFoundError(raw)
        for item in found:
            out.setdefault(item.resolve(), item)
    return list(out.values())
