"""Per-file analysis context shared by every rule.

One :class:`ModuleContext` is built per linted file: the parsed AST,
the source lines, the module's dotted name (inferred from the package
layout on disk), the resolved import table, and the inline suppression
comments.  Rules receive the context alongside each dispatched node and
use it to resolve names (``np.random.rand`` -> ``numpy.random.rand``)
and to emit findings.

Suppressions
------------
``# archlint: disable=ARCH004`` at the end of a line suppresses the
named code(s) on that physical line (comma-separated codes, or
``all``).  On a comment-only line the directive applies to the *next*
line instead, so a justification can sit above the code it excuses.
``# archlint: disable-file=ARCH002`` anywhere in the file suppresses
the code for the whole file.  Suppressed findings are dropped before
baseline matching, so a suppression is the terminal state of a
grandfathered finding -- write the justification next to it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

_SUPPRESS_RE = re.compile(
    r"#\s*archlint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<codes>all|[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
)

#: Matches ``all`` in a suppression comment.
ALL_CODES = "all"


def module_name_for(path: Path) -> str:
    """Infer a file's dotted module name from ``__init__.py`` markers.

    ``src/repro/machine/engine.py`` -> ``repro.machine.engine``; a file
    outside any package is just its stem.  Scoped rules key off this,
    so fixtures fed through :func:`repro.lint.engine.lint_source` pass
    an explicit module name instead.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def dotted_name(node: ast.expr) -> str | None:
    """The ``a.b.c`` chain of a Name/Attribute node, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def absolutize(dotted: str, *tables: Mapping[str, str]) -> str | None:
    """Rewrite a dotted chain's root through the first table binding
    it (``None`` when none does)."""
    root, _, rest = dotted.partition(".")
    for table in tables:
        base = table.get(root)
        if base is not None:
            return f"{base}.{rest}" if rest else base
    return None


def resolve_imported(
    node: ast.expr, imports: Mapping[str, str]
) -> str | None:
    """Fully qualified dotted name of a chain rooted in an import.

    The chain's root is looked up in the import table, so with
    ``import numpy as np`` the node ``np.random.rand`` resolves to
    ``numpy.random.rand``.  A chain rooted anywhere else resolves to
    ``None``: a local or parameter that happens to be called
    ``random`` is not the stdlib module.
    """
    dotted = dotted_name(node)
    return None if dotted is None else absolutize(dotted, imports)


def absolute_imports(
    tree: ast.Module, module: str, is_package: bool
) -> dict[str, str]:
    """Local name -> fully absolutized dotted target.

    Relative imports resolve against the module's package (``from
    ..machine import x`` in ``repro.microbench.campaign`` ->
    ``repro.machine.x``) and ``from . import x`` binds ``x`` too.
    ``import numpy.random`` binds ``numpy``; only an asname binds the
    full dotted path.
    """
    package = module if is_package else module.rpartition(".")[0]
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                out[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".") if package else []
                keep = parts[: max(len(parts) - (node.level - 1), 0)]
                base = ".".join(keep)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}"
    return out


@dataclass
class Suppressions:
    """One file's inline ``# archlint: disable`` comments.

    Built once per parsed file and carried, JSON-able, in the per-file
    payload, so cached files suppress exactly like freshly parsed ones.
    """

    #: codes suppressed for the whole file.
    file: set[str] = field(default_factory=set)
    #: line number -> set of suppressed codes (or {"all"}).
    lines: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def scan(cls, lines: list[str]) -> "Suppressions":
        out = cls()
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            codes = {
                code.strip() for code in match.group("codes").split(",")
            }
            if match.group("scope"):
                out.file |= codes
                continue
            # A comment-only line shields the next line, so the
            # justification can sit above the code it excuses.
            comment_only = text.lstrip().startswith("#")
            target = lineno + 1 if comment_only else lineno
            out.lines.setdefault(target, set()).update(codes)
        return out

    def is_suppressed(self, code: str, line: int) -> bool:
        if code in self.file or ALL_CODES in self.file:
            return True
        codes = self.lines.get(line, ())
        return code in codes or ALL_CODES in codes

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": sorted(self.file),
            "lines": {
                str(line): sorted(codes)
                for line, codes in sorted(self.lines.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Suppressions":
        return cls(
            file=set(data["file"]),
            lines={
                int(line): set(codes)
                for line, codes in data["lines"].items()
            },
        )


@dataclass
class ModuleContext:
    """Everything the rules know about one file under analysis."""

    path: str
    module: str  #: dotted module name, e.g. ``"repro.machine.engine"``.
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: local name -> fully qualified name (see :func:`absolute_imports`).
    imports: dict[str, str] = field(default_factory=dict)
    suppressions: Suppressions = field(default_factory=Suppressions)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module: str = ""
    ) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        module = module or Path(path).stem
        lines = source.splitlines()
        return cls(
            path=path,
            module=module,
            tree=tree,
            lines=lines,
            imports=absolute_imports(
                tree, module, path.endswith("__init__.py")
            ),
            suppressions=Suppressions.scan(lines),
        )

    def resolve(self, node: ast.expr) -> str | None:
        """:func:`resolve_imported` through this file's import table."""
        return resolve_imported(node, self.imports)

    def in_module(self, *prefixes: str) -> bool:
        """Whether this file lies under any of the dotted prefixes."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def is_suppressed(self, code: str, line: int) -> bool:
        return self.suppressions.is_suppressed(code, line)

    def source_line(self, line: int) -> str:
        """Stripped text of a 1-based source line ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""
