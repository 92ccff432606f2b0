"""Per-module summaries: everything project analysis needs, JSON-able.

One :class:`ModuleSummary` is extracted per file in a single AST walk
and is deliberately *closed* over the file's own content -- no other
file is consulted -- so a summary can be cached on the file's content
sha1 and replayed without re-parsing (:mod:`repro.lint.project.cache`).
Cross-module resolution happens later, in
:mod:`repro.lint.project.graph`, over the summary set.

What is recorded per function (methods included):

* **call sites** with best-effort callee references (absolutized
  through the import table; ``self.method``; attribute calls through
  locally constructed or annotated instances), the exception guards
  enclosing the call, and the unit suffix of every argument;
* **sinks**: uses of global-state RNG (``numpy.random.*`` functions,
  the stdlib ``random`` module) and wall-clock reads (``time.time``,
  ``datetime.now`` family) -- exactly the uses ARCH001 bans per file
  (both ask :func:`~repro.lint.rules.determinism.sink_kind`);
* **raise sites** (leaf exception class names);
* **return-unit evidence**: returned identifiers with unit suffixes
  and returned call results (chained through the fixed point);
* **unit-suffixed assignments** whose value is a call result.

Nested functions and lambdas fold into their enclosing function's
summary -- a conservative over-approximation that keeps the call graph
first-order.

Unit references are compact strings: ``""`` unknown, ``"u:<unit>"`` a
literal suffix, ``"c:<dotted>"`` the return unit of a callee.  Callee
references are dotted names, optionally with one attribute hop
(``"<class-qname>#<attr>#<method>"`` -- resolved through the class's
recorded attribute types at graph time).
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from ..context import (
    ModuleContext,
    absolute_imports,
    absolutize,
    dotted_name,
    resolve_imported,
)
from ..rules.determinism import sink_kind
from ..rules.exceptions import inspect_handler
from ..rules.picklability import annotated_fields, dataclass_shape
from ..rules.unit_discipline import unit_of, unit_suffix

__all__ = [
    "CallSite",
    "ClassSummary",
    "FieldSummary",
    "FunctionSummary",
    "Guard",
    "ModuleSummary",
    "RaiseSite",
    "SinkSite",
    "absolute_imports",
    "summarize_module",
    "unit_suffix",
]


# -- summary records ----------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """One ``except`` clause of a ``try`` enclosing a call site."""

    caught: tuple[str, ...]  #: leaf class names; ``("",)`` = bare except.
    reraises: bool  #: body contains a ``raise``.
    line: int
    col: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "caught": list(self.caught),
            "reraises": self.reraises,
            "line": self.line,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Guard":
        return cls(
            caught=tuple(data["caught"]),
            reraises=bool(data["reraises"]),
            line=int(data["line"]),
            col=int(data["col"]),
        )


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    #: Candidate callee references (empty when unresolvable).
    callees: tuple[str, ...]
    line: int
    col: int
    #: Unit refs of positional args ('' / 'u:<unit>' / 'c:<dotted>').
    arg_units: tuple[str, ...]
    #: (keyword name, unit ref) pairs, known-unit keywords only.
    kw_units: tuple[tuple[str, str], ...]
    #: Enclosing try statements, innermost first; each is its ordered
    #: handler tuple.
    guards: tuple[tuple[Guard, ...], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "callees": list(self.callees),
            "line": self.line,
            "col": self.col,
            "arg_units": list(self.arg_units),
            "kw_units": [list(pair) for pair in self.kw_units],
            "guards": [[g.to_dict() for g in level] for level in self.guards],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CallSite":
        return cls(
            callees=tuple(data["callees"]),
            line=int(data["line"]),
            col=int(data["col"]),
            arg_units=tuple(data["arg_units"]),
            kw_units=tuple(
                (pair[0], pair[1]) for pair in data["kw_units"]
            ),
            guards=tuple(
                tuple(Guard.from_dict(g) for g in level)
                for level in data["guards"]
            ),
        )


@dataclass(frozen=True)
class SinkSite:
    """A direct use of global RNG state or the wall clock."""

    kind: str  #: ``"rng"`` or ``"clock"``.
    name: str  #: resolved dotted name, e.g. ``"time.time"``.
    line: int
    col: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SinkSite":
        return cls(**data)


@dataclass(frozen=True)
class RaiseSite:
    """A ``raise X(...)`` statement (leaf class name)."""

    exc: str
    line: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RaiseSite":
        return cls(**data)


@dataclass(frozen=True)
class FunctionSummary:
    """Everything project analysis knows about one function."""

    qname: str  #: ``module.func`` or ``module.Class.method``.
    name: str
    line: int
    is_method: bool
    params: tuple[str, ...]  #: positional params, in order (incl. self).
    kwonly: tuple[str, ...]
    #: Unit implied by the function's own name suffix ('' if none).
    return_unit_declared: str
    #: Unit refs of returned expressions (non-empty refs only).
    return_refs: tuple[str, ...]
    calls: tuple[CallSite, ...]
    sinks: tuple[SinkSite, ...]
    raises: tuple[RaiseSite, ...]
    #: (target unit, value ref, line) for unit-suffixed assignments
    #: whose value carries a resolvable ref.
    unit_assigns: tuple[tuple[str, str, int], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "qname": self.qname,
            "name": self.name,
            "line": self.line,
            "is_method": self.is_method,
            "params": list(self.params),
            "kwonly": list(self.kwonly),
            "return_unit_declared": self.return_unit_declared,
            "return_refs": list(self.return_refs),
            "calls": [c.to_dict() for c in self.calls],
            "sinks": [s.to_dict() for s in self.sinks],
            "raises": [r.to_dict() for r in self.raises],
            "unit_assigns": [list(entry) for entry in self.unit_assigns],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FunctionSummary":
        return cls(
            qname=data["qname"],
            name=data["name"],
            line=int(data["line"]),
            is_method=bool(data["is_method"]),
            params=tuple(data["params"]),
            kwonly=tuple(data["kwonly"]),
            return_unit_declared=data["return_unit_declared"],
            return_refs=tuple(data["return_refs"]),
            calls=tuple(CallSite.from_dict(c) for c in data["calls"]),
            sinks=tuple(SinkSite.from_dict(s) for s in data["sinks"]),
            raises=tuple(RaiseSite.from_dict(r) for r in data["raises"]),
            unit_assigns=tuple(
                (entry[0], entry[1], int(entry[2]))
                for entry in data["unit_assigns"]
            ),
        )


@dataclass(frozen=True)
class FieldSummary:
    """One annotated dataclass/class field."""

    name: str
    line: int
    #: Simple names in the annotation (unpicklable-type check).
    simple_names: tuple[str, ...]
    #: Absolutized dotted references (class-reachability recursion).
    refs: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "simple_names": list(self.simple_names),
            "refs": list(self.refs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FieldSummary":
        return cls(
            name=data["name"],
            line=int(data["line"]),
            simple_names=tuple(data["simple_names"]),
            refs=tuple(data["refs"]),
        )


@dataclass(frozen=True)
class ClassSummary:
    """Shape of one class: decorators, bases, fields, methods."""

    qname: str
    name: str
    line: int
    is_dataclass: bool
    frozen: bool
    bases: tuple[str, ...]  #: absolutized dotted refs.
    fields: tuple[FieldSummary, ...]
    methods: tuple[str, ...]
    #: attribute name -> candidate type refs, from ``self.x = T(...)``
    #: assignments and annotated constructor params.
    attr_refs: tuple[tuple[str, tuple[str, ...]], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "qname": self.qname,
            "name": self.name,
            "line": self.line,
            "is_dataclass": self.is_dataclass,
            "frozen": self.frozen,
            "bases": list(self.bases),
            "fields": [f.to_dict() for f in self.fields],
            "methods": list(self.methods),
            "attr_refs": [
                [attr, list(refs)] for attr, refs in self.attr_refs
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClassSummary":
        return cls(
            qname=data["qname"],
            name=data["name"],
            line=int(data["line"]),
            is_dataclass=bool(data["is_dataclass"]),
            frozen=bool(data["frozen"]),
            bases=tuple(data["bases"]),
            fields=tuple(FieldSummary.from_dict(f) for f in data["fields"]),
            methods=tuple(data["methods"]),
            attr_refs=tuple(
                (entry[0], tuple(entry[1])) for entry in data["attr_refs"]
            ),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """One file's contribution to the whole-program picture."""

    module: str
    path: str
    is_package: bool
    imports: tuple[tuple[str, str], ...]  #: (local, absolutized) pairs.
    functions: tuple[FunctionSummary, ...]
    classes: tuple[ClassSummary, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "is_package": self.is_package,
            "imports": [list(pair) for pair in self.imports],
            "functions": [f.to_dict() for f in self.functions],
            "classes": [c.to_dict() for c in self.classes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModuleSummary":
        return cls(
            module=data["module"],
            path=data["path"],
            is_package=bool(data["is_package"]),
            imports=tuple(
                (pair[0], pair[1]) for pair in data["imports"]
            ),
            functions=tuple(
                FunctionSummary.from_dict(f) for f in data["functions"]
            ),
            classes=tuple(
                ClassSummary.from_dict(c) for c in data["classes"]
            ),
        )


# -- extraction ---------------------------------------------------------


def _annotation_refs(annotation: ast.expr) -> list[str]:
    """Dotted name chains mentioned in an annotation, outermost first.

    Subscripts recurse (``tuple[QuarantinedCell, ...]`` yields
    ``QuarantinedCell``), string annotations are parsed, and only the
    *full* chain of an attribute expression is yielded (``np.ndarray``,
    not also ``np``).
    """
    out: list[str] = []

    def walk(node: ast.expr) -> None:
        dotted = dotted_name(node)
        if dotted is not None:
            out.append(dotted)
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return
            walk(parsed.body)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                walk(child)

    walk(annotation)
    return out


def _raise_leaf(node: ast.Raise) -> str:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return ""


def _handler_guard(handler: ast.ExceptHandler) -> Guard:
    caught, reraises = inspect_handler(handler)
    return Guard(
        caught=caught,
        reraises=reraises,
        line=handler.lineno,
        col=handler.col_offset,
    )


class _FunctionCollector(ast.NodeVisitor):
    """Single-pass collector over one function body."""

    def __init__(
        self,
        module: str,
        imports: Mapping[str, str],
        toplevel: Mapping[str, str],
        class_qname: str,
        attr_sink: dict[str, list[str]] | None,
    ) -> None:
        self.module = module
        self.imports = imports
        self.toplevel = toplevel  #: local def/class name -> qname.
        self.class_qname = class_qname  #: '' outside a class.
        self.attr_sink = attr_sink  #: self.x assignments land here.
        self.local_types: dict[str, tuple[str, ...]] = {}
        self.guards: list[tuple[Guard, ...]] = []
        self.calls: list[CallSite] = []
        self.sinks: list[SinkSite] = []
        self.raises: list[RaiseSite] = []
        self.return_refs: list[str] = []
        self.unit_assigns: list[tuple[str, str, int]] = []

    # -- reference resolution -----------------------------------------

    def _callee_refs(self, func: ast.expr) -> tuple[str, ...]:
        dotted = dotted_name(func)
        if dotted is None:
            return ()
        parts = dotted.split(".")
        root = parts[0]
        if root == "self" and self.class_qname:
            if len(parts) == 2:
                return (f"{self.class_qname}.{parts[1]}",)
            if len(parts) == 3:
                # self.attr.method: one attribute hop, resolved through
                # the class's recorded attribute types at graph time.
                return (f"{self.class_qname}#{parts[1]}#{parts[2]}",)
            return ()
        if root in self.local_types:
            rest = ".".join(parts[1:])
            if not rest:
                return ()
            return tuple(
                f"{ref}.{rest}" for ref in self.local_types[root]
            )
        resolved = absolutize(dotted, self.imports, self.toplevel)
        return (resolved,) if resolved else ()

    def _unit_ref(self, node: ast.expr) -> str:
        if isinstance(node, (ast.Name, ast.Attribute)):
            unit = unit_of(node)
            return f"u:{unit}" if unit else ""
        if isinstance(node, ast.Call):
            refs = self._callee_refs(node.func)
            return f"c:{refs[0]}" if refs else ""
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            left = self._unit_ref(node.left)
            right = self._unit_ref(node.right)
            if left and right:
                return left if left == right else ""
            return left or right
        return ""

    # -- statement handling -------------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        level = tuple(_handler_guard(h) for h in node.handlers)
        self.guards.append(level)
        try:
            for stmt in node.body:
                self.visit(stmt)
            for stmt in node.orelse:
                self.visit(stmt)
        finally:
            self.guards.pop()
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.finalbody:
            self.visit(stmt)

    if hasattr(ast, "TryStar"):  # 3.11+

        def visit_TryStar(self, node: Any) -> None:
            self.visit_Try(node)

    def visit_Call(self, node: ast.Call) -> None:
        callees = self._callee_refs(node.func)
        arg_units = tuple(self._unit_ref(arg) for arg in node.args)
        kw_units = tuple(
            (kw.arg, self._unit_ref(kw.value))
            for kw in node.keywords
            if kw.arg is not None and self._unit_ref(kw.value)
        )
        if callees or any(arg_units) or kw_units:
            self.calls.append(
                CallSite(
                    callees=callees,
                    line=node.lineno,
                    col=node.col_offset,
                    arg_units=arg_units,
                    kw_units=kw_units,
                    guards=tuple(reversed(self.guards)),
                )
            )
        self.generic_visit(node)

    def _check_sink(self, node: ast.expr) -> None:
        resolved = resolve_imported(node, self.imports)
        if resolved is None:
            return
        kind = sink_kind(resolved)
        if kind is not None:
            self.sinks.append(
                SinkSite(
                    kind=kind,
                    name=resolved,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_sink(node)
        # Recurse past the pure Name/Attribute prefix so sub-chains of
        # one dotted use are not recorded as separate sinks.
        inner: ast.expr = node.value
        while isinstance(inner, ast.Attribute):
            inner = inner.value
        if not isinstance(inner, ast.Name):
            self.visit(inner)

    def visit_Name(self, node: ast.Name) -> None:
        self._check_sink(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        leaf = _raise_leaf(node)
        if leaf:
            self.raises.append(RaiseSite(exc=leaf, line=node.lineno))
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            ref = self._unit_ref(node.value)
            if ref:
                self.return_refs.append(ref)
        self.generic_visit(node)

    def _record_assign(
        self, target: ast.expr, value: ast.expr, line: int
    ) -> None:
        # Local constructor-style type inference: ``x = T(...)``.
        if isinstance(target, ast.Name) and isinstance(value, ast.Call):
            refs = self._callee_refs(value.func)
            if refs:
                self.local_types[target.id] = refs
        # ``self.attr = T(...)`` / ``self.attr = param`` feed the
        # class's attribute-type table.
        if (
            self.attr_sink is not None
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            refs = ()
            if isinstance(value, ast.Call):
                refs = self._callee_refs(value.func)
            elif isinstance(value, ast.Name):
                refs = self.local_types.get(value.id, ())
            if refs:
                self.attr_sink.setdefault(target.attr, []).extend(refs)
        # Unit-suffixed target taking a call result (return-boundary
        # unit check).
        unit = unit_of(target)
        if unit:
            ref = self._unit_ref(value)
            if ref.startswith("c:"):
                self.unit_assigns.append((unit, ref, line))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assign(target, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign(node.target, node.value, node.lineno)
            # Annotated locals also fix the variable's type.
            if isinstance(node.target, ast.Name):
                refs = self._param_type_refs(node.annotation)
                if refs:
                    self.local_types.setdefault(node.target.id, refs)
        self.generic_visit(node)

    def _param_type_refs(self, annotation: ast.expr) -> tuple[str, ...]:
        refs = []
        for dotted in _annotation_refs(annotation):
            if dotted in ("None", "Optional", "Union"):
                continue
            resolved = absolutize(dotted, self.imports, self.toplevel)
            if resolved:
                refs.append(resolved)
        return tuple(refs)

    def bind_params(self, args: ast.arguments) -> None:
        """Record annotated parameter types for attribute-call
        resolution (``runner: BenchmarkRunner`` -> ``runner.execute``)."""
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ):
            if arg.annotation is not None:
                refs = self._param_type_refs(arg.annotation)
                if refs:
                    self.local_types[arg.arg] = refs

    # Nested defs/lambdas fold into the enclosing summary; their bodies
    # are walked with the same collector.
    def _visit_nested(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for stmt in node.body:
            self.visit(stmt)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_nested

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # local classes are out of scope.


def _positional_params(args: ast.arguments) -> tuple[str, ...]:
    return tuple(
        arg.arg for arg in (*args.posonlyargs, *args.args)
    )


def _summarize_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    module: str,
    imports: Mapping[str, str],
    toplevel: Mapping[str, str],
    class_qname: str = "",
    attr_sink: dict[str, list[str]] | None = None,
) -> FunctionSummary:
    collector = _FunctionCollector(
        module, imports, toplevel, class_qname, attr_sink
    )
    collector.bind_params(node.args)
    for stmt in node.body:
        collector.visit(stmt)
    owner = class_qname or module
    return FunctionSummary(
        qname=f"{owner}.{node.name}",
        name=node.name,
        line=node.lineno,
        is_method=bool(class_qname),
        params=_positional_params(node.args),
        kwonly=tuple(arg.arg for arg in node.args.kwonlyargs),
        return_unit_declared=unit_suffix(node.name),
        return_refs=tuple(collector.return_refs),
        calls=tuple(collector.calls),
        sinks=tuple(collector.sinks),
        raises=tuple(collector.raises),
        unit_assigns=tuple(collector.unit_assigns),
    )


def _summarize_class(
    node: ast.ClassDef,
    *,
    module: str,
    imports: Mapping[str, str],
    toplevel: Mapping[str, str],
) -> tuple[ClassSummary, list[FunctionSummary]]:
    qname = f"{module}.{node.name}"
    is_dataclass, frozen = dataclass_shape(node)

    def ref(dotted: str) -> str:
        return absolutize(dotted, imports, toplevel) or dotted

    bases = tuple(
        ref(dotted)
        for dotted in map(dotted_name, node.bases)
        if dotted is not None
    )
    fields = tuple(
        FieldSummary(
            name=stmt.target.id,
            line=stmt.lineno,
            simple_names=tuple(sorted(names)),
            refs=tuple(
                ref(dotted) for dotted in _annotation_refs(stmt.annotation)
            ),
        )
        for stmt, names in annotated_fields(node)
        if isinstance(stmt.target, ast.Name)
    )

    methods: list[str] = []
    functions: list[FunctionSummary] = []
    attr_sink: dict[str, list[str]] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(stmt.name)
            functions.append(
                _summarize_function(
                    stmt,
                    module=module,
                    imports=imports,
                    toplevel=toplevel,
                    class_qname=qname,
                    attr_sink=attr_sink,
                )
            )
    summary = ClassSummary(
        qname=qname,
        name=node.name,
        line=node.lineno,
        is_dataclass=is_dataclass,
        frozen=frozen,
        bases=bases,
        fields=fields,
        methods=tuple(methods),
        attr_refs=tuple(
            sorted(
                (attr, tuple(dict.fromkeys(refs)))
                for attr, refs in attr_sink.items()
            )
        ),
    )
    return summary, functions


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Extract one file's :class:`ModuleSummary` from its parsed AST."""
    imports = ctx.imports
    toplevel: dict[str, str] = {}
    for node in ctx.tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            toplevel[node.name] = f"{ctx.module}.{node.name}"
    functions: list[FunctionSummary] = []
    classes: list[ClassSummary] = []
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(
                _summarize_function(
                    node,
                    module=ctx.module,
                    imports=imports,
                    toplevel=toplevel,
                )
            )
        elif isinstance(node, ast.ClassDef):
            summary, methods = _summarize_class(
                node,
                module=ctx.module,
                imports=imports,
                toplevel=toplevel,
            )
            classes.append(summary)
            functions.extend(methods)
    return ModuleSummary(
        module=ctx.module,
        path=ctx.path,
        is_package=ctx.path.endswith("__init__.py"),
        imports=tuple(sorted(imports.items())),
        functions=tuple(functions),
        classes=tuple(classes),
    )
