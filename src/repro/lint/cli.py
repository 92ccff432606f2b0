"""The ``archline lint`` subcommand.

Exit codes follow the usual linter contract:

* ``0`` -- clean (no findings after suppressions and baseline),
* ``1`` -- findings reported,
* ``2`` -- usage error (unknown path, rule code or format, a
  ``--jobs`` below 1, a malformed baseline file, or ``--changed``
  outside a git checkout).

One engine
----------
Every run lints the given paths with all eleven rules through
:func:`repro.lint.project.lint_project`: the per-file rules
(ARCH001-ARCH007) and the whole-program rules over the module graph
(ARCH008-ARCH011).  ``--jobs N`` fans the per-file phase over a process
pool and ``--cache DIR`` makes warm re-runs incremental.  ``--changed``
filters the findings to files the git worktree touches.
``--include-tests`` adds a relaxed pass over ``tests/``,
``benchmarks/``, ``examples/`` and ``perfbench/``.  ``--project`` is
still accepted and does nothing: whole-program analysis is the only
mode.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from .baseline import (
    DEFAULT_BASELINE_NAME,
    filter_baselined,
    load_baseline,
    write_baseline,
)
from .output import FORMATS, render
from .rules import all_rules, load_builtin_rules

#: The relaxed subset ``--include-tests`` runs over the test and
#: benchmark directories: hygiene rules that catch real bugs in test code
#: (swallowed faults, mixed units).  Convention rules (telemetry
#: wiring) and the project rules stay src-only -- test doubles and
#: fixtures break them by design, not by accident.
RELAXED_TEST_CODES = ("ARCH003", "ARCH005")

#: Directories the relaxed pass covers when they exist.
TEST_DIRS = ("tests", "benchmarks", "examples", "perfbench")


def build_lint_parser(
    parent: argparse._SubParsersAction | None = None,
) -> argparse.ArgumentParser:
    """The lint argument parser; attaches to ``parent`` when given."""
    kwargs = dict(
        description="AST-based static analysis of the repo's determinism, "
        "picklability and unit-discipline invariants (per-file rules "
        "ARCH001-007 and whole-program rules ARCH008-011; see "
        "docs/LINT.md)",
    )
    if parent is None:
        parser = argparse.ArgumentParser(prog="archline lint", **kwargs)
    else:
        parser = parent.add_parser(
            "lint", help="run the archlint static-analysis rules", **kwargs
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (github emits ::error annotations)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline JSON of grandfathered findings (default: "
        f"./{DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="accepted for compatibility and ignored: every run is "
        "whole-program",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width for the per-file phase "
        "(default: 1, in-process)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed summary cache directory; warm runs "
        "replay unchanged files without parsing",
    )
    parser.add_argument(
        "--include-tests",
        action="store_true",
        help=f"also lint {', '.join(TEST_DIRS)} with the relaxed rule "
        f"subset ({', '.join(RELAXED_TEST_CODES)})",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="report only findings in .py files the git worktree "
        "changes relative to HEAD (plus untracked files)",
    )
    return parser


def _resolve_baseline_path(arg: str | None) -> Path | None:
    if arg is not None:
        return Path(arg)
    default = Path(DEFAULT_BASELINE_NAME)
    return default if default.is_file() else None


def _git_lines(*args: str) -> list[str]:
    proc = subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True
    )
    return [line for line in proc.stdout.splitlines() if line]


def _changed_files(paths: Sequence[str]) -> set[Path] | None:
    """Resolved worktree-changed ``.py`` files under ``paths``; ``None``
    when git is unavailable (not a repo, no git binary).

    Both listings run from the worktree's top level, so their names
    are relative to it wherever the command itself runs from.
    """
    try:
        (top,) = _git_lines("rev-parse", "--show-toplevel")
        tracked = _git_lines("-C", top, "diff", "--name-only", "HEAD", "--", "*.py")
        untracked = _git_lines(
            "-C", top, "ls-files", "--others", "--exclude-standard", "--", "*.py"
        )
    except (OSError, ValueError, subprocess.CalledProcessError):
        return None
    roots = [Path(p).resolve() for p in paths]
    out: set[Path] = set()
    for name in tracked + untracked:
        path = (Path(top) / name).resolve()
        if not path.is_file():  # deleted files still appear in the diff.
            continue
        if any(path == root or root in path.parents for root in roots):
            out.add(path)
    return out


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand from parsed arguments."""
    load_builtin_rules()
    if args.list_rules:
        for code, rule_cls in all_rules().items():
            scope = (
                ", ".join(rule_cls.scope) if rule_cls.scope else "all modules"
            )
            print(f"{code} {rule_cls.name}: {rule_cls.description} [{scope}]")
        return 0
    if args.jobs < 1:
        print("archline lint: --jobs must be >= 1", file=sys.stderr)
        return 2

    codes = None
    if args.select:
        codes = [code.strip() for code in args.select.split(",") if code.strip()]

    changed = None
    if args.changed:
        changed = _changed_files(args.paths)
        if changed is None:
            print(
                "archline lint: --changed needs a git checkout",
                file=sys.stderr,
            )
            return 2
        if not changed:
            print("archline lint: no changed files", file=sys.stderr)

    from .project import lint_project

    try:
        findings, stats = lint_project(
            args.paths, codes, jobs=args.jobs, cache_dir=args.cache
        )
        print(stats.render(), file=sys.stderr)
        if args.include_tests:
            extra_dirs = [d for d in TEST_DIRS if Path(d).is_dir()]
            relaxed = [
                code
                for code in RELAXED_TEST_CODES
                if codes is None or code in codes
            ]
            if extra_dirs and relaxed:
                extra, _ = lint_project(extra_dirs, relaxed)
                findings = sorted(findings + extra)
    except FileNotFoundError as err:
        print(f"archline lint: no such path: {err.args[0]}", file=sys.stderr)
        return 2
    except KeyError as err:
        known = ", ".join(all_rules())
        print(
            f"archline lint: unknown rule code {err.args[0]!r} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 2
    if changed is not None:
        findings = [f for f in findings if Path(f.path).resolve() in changed]

    baseline_path = _resolve_baseline_path(args.baseline)
    if args.update_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        count = write_baseline(target, findings)
        print(f"archline lint: baselined {count} finding(s) -> {target}")
        return 0
    if baseline_path is not None:
        try:
            fingerprints = load_baseline(baseline_path)
        except (OSError, ValueError) as err:
            print(f"archline lint: {err}", file=sys.stderr)
            return 2
        findings, matched = filter_baselined(findings, fingerprints)
        if matched:
            print(
                f"archline lint: {matched} finding(s) matched the baseline",
                file=sys.stderr,
            )

    print(render(findings, args.format))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = build_lint_parser()
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
