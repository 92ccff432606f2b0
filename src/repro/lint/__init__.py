"""archlint: repo-specific static analysis over the Python AST.

Generic linters cannot see this repo's load-bearing invariants --
bit-identical replays from explicitly passed generators, frozen
picklable dataclasses on the process-pool boundary, rig-fault
exceptions that must never be silently swallowed, and the physical-unit
bookkeeping mirroring the paper's theta = (tau, eps, pi1, delta_pi)
vector.  This package enforces them with a dependency-free rule pack
-- per-file rules ``ARCH001``-``ARCH007`` and whole-program rules
``ARCH008``-``ARCH011``, all run by one driver
(:func:`repro.lint.project.lint_project`) -- with inline ``# archlint:
disable=CODE`` suppressions, a committed JSON baseline, and
text/JSON/GitHub-annotation output.  Run it as ``archline lint`` (see
docs/LINT.md for the rule catalog).
"""

from __future__ import annotations

from .baseline import load_baseline, write_baseline
from .context import ModuleContext
from .engine import lint_source
from .findings import Finding, Severity
from .output import render
from .rules import Rule, all_rules, load_builtin_rules, register

__all__ = [
    "Finding",
    "Severity",
    "ModuleContext",
    "Rule",
    "register",
    "all_rules",
    "load_builtin_rules",
    "lint_source",
    "render",
    "load_baseline",
    "write_baseline",
]
