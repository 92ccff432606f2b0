"""The shipped source tree must lint clean with an empty baseline.

This is the acceptance criterion of the lint PR frozen as a test: every
real violation was either fixed or carries an inline justified
suppression, so ``archline lint src/`` reports nothing.  If a future
change introduces a violation, this test fails alongside CI.
"""

from __future__ import annotations

import pathlib

from repro.lint.project import lint_project

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_src_tree_is_archlint_clean():
    """All eleven rules hold on the shipped tree, the whole-program
    ones (ARCH008-011) included."""
    findings, stats = lint_project([str(REPO_ROOT / "src")])
    assert findings == [], "\n".join(f.render_text() for f in findings)
    assert stats.files > 100  # the whole tree was actually analyzed.


def test_src_tree_is_archlint_clean_in_project_mode(tmp_path, monkeypatch, capsys):
    """``archline lint --project src/`` (the spelling CI used before the
    flag became a no-op) still exits clean over the whole tree, with no
    baseline to hide findings behind."""
    from repro.lint.cli import main as lint_main

    monkeypatch.chdir(tmp_path)  # no archlint.baseline.json in reach.
    assert lint_main(["--project", str(REPO_ROOT / "src")]) == 0
    assert "analyzed=" in capsys.readouterr().err


def test_tests_and_benchmarks_pass_relaxed_subset():
    from repro.lint.cli import RELAXED_TEST_CODES, TEST_DIRS

    findings, _ = lint_project(
        [str(REPO_ROOT / name) for name in TEST_DIRS],
        list(RELAXED_TEST_CODES),
    )
    assert findings == [], "\n".join(f.render_text() for f in findings)
