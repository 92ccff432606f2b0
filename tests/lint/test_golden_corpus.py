"""Golden differential: the lint driver over a fixed corpus.

The corpus below exercises every rule code ARCH000-ARCH011 with at
least one positive and one negative file, laid out under ``repro/...``
package paths so the scoped rules apply.  It also covers the import,
suppression and cross-module cases whose handling is shared between the
per-file rules and the module summaries: relative imports,
``from . import x``, a module-level ``time.time()``, ``from random
import ...``, a nested dataclass in a pool module, file-level and
comment-line suppressions, and a cross-module ARCH008 chain.

``tests/data/lint_corpus_findings.json`` was recorded when per-file
rules (ARCH000-ARCH007) and whole-program rules (ARCH008-ARCH011) ran
through two separate drivers; the single driver must reproduce it
exactly -- codes, messages, lines, columns and fingerprints.

The corpus lives in strings, not ``.py`` files, so the relaxed
``--include-tests`` pass never lints it.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.project import lint_project

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "lint_corpus_findings.json"

CORPUS = {
    # ARCH000 positive; every other file is its negative.
    "repro/broken.py": "def oops(:\n",
    # ARCH001 positive: module-level wall clock, ``from random import``,
    # a global-state numpy RNG call and a ``datetime.now`` read.
    "repro/machine/clocks.py": """
        import time
        from datetime import datetime
        from random import shuffle

        import numpy as np

        STARTED = time.time()

        def jitter(values):
            shuffle(values)
            return np.random.rand(len(values)), datetime.now()
        """,
    # ARCH001 negative: explicit generator, monotonic clock, a local
    # named ``random``, and a relative import of a project module
    # called ``random`` that is not the stdlib one.
    "repro/machine/seeded.py": """
        import time

        import numpy as np

        from .random import draw

        def sample(seed, random):
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            return rng.normal(), random.random(), draw(), time.perf_counter() - start
        """,
    "repro/machine/random.py": """
        def draw():
            return 4
        """,
    # ARCH002 positive: unfrozen pool dataclass, unpicklable fields and
    # a nested dataclass.
    "repro/faults/plan.py": """
        from dataclasses import dataclass
        from typing import Callable, ClassVar

        @dataclass
        class FaultPlan:
            rate: float
            hook: Callable[[], None]
            registry: ClassVar[dict] = {}

            @dataclass(frozen=False)
            class Window:
                start: int
                lock: "Lock"
        """,
    # ARCH002/ARCH006/ARCH011 negative: frozen pool dataclass and a
    # NULL_RECORDER default.
    "repro/telemetry/recorder.py": """
        from dataclasses import dataclass

        NULL_RECORDER = object()

        @dataclass(frozen=True)
        class SpanRecord:
            name: str
            wall_seconds: float

        def emit(record, recorder=NULL_RECORDER):
            return record
        """,
    # ARCH006 positive: recorder defaults and an RNG inside telemetry.
    "repro/telemetry/spans.py": """
        import random

        def span(name, recorder):
            return name

        def timed(name, *, recorder=None):
            return random.random()
        """,
    # ARCH003 positive: bare, broad-and-silent, and no-op fault handlers.
    "repro/serve/handlers.py": """
        from repro.faults.errors import RigFaultError

        def run(step):
            try:
                step()
            except:
                pass

        def guarded(step):
            try:
                step()
            except Exception:
                return None

        def faulty(step):
            try:
                step()
            except (ValueError, RigFaultError):
                pass
        """,
    # ARCH003 negative: narrow, accounted and re-raising handlers.
    "repro/serve/safe.py": """
        import logging

        LOG = logging.getLogger(__name__)

        def run(step):
            try:
                step()
            except KeyError:
                return None
            except Exception as err:
                LOG.warning("step failed: %s", err)

        def strict(step):
            try:
                step()
            except BaseException:
                raise
        """,
    # ARCH004 positive.
    "repro/stats/compare.py": """
        def converged(residual, sigma, n):
            return residual == 0.5 or sigma != -1.0 or n == 0
        """,
    # ARCH004 negative: integer and ordered comparisons.
    "repro/stats/counts.py": """
        def empty(n, spread):
            return n == 0 and spread < 1.5
        """,
    # ARCH004 suppressed for the whole file.
    "repro/stats/sentinel.py": """
        # archlint: disable-file=ARCH004
        def degenerate(sigma):
            return sigma == 0.0
        """,
    # ARCH005 positive.
    "repro/measurement/energy.py": """
        def total(energy_joules, wall_seconds, budget_seconds):
            mixed = energy_joules + wall_seconds
            budget_seconds += energy_joules
            return mixed, energy_joules > wall_seconds
        """,
    # ARCH005 negative, with a comment-line suppression.
    "repro/measurement/rates.py": """
        def watts(energy_joules, wall_seconds, idle_joules):
            # archlint: disable=ARCH005
            skew = energy_joules - wall_seconds
            return (energy_joules + idle_joules) / wall_seconds, skew
        """,
    # ARCH007 positive.
    "repro/store/records.py": """
        from dataclasses import dataclass
        from typing import Callable, FrozenSet

        @dataclass
        class Header:
            tags: set[str]
            keys: FrozenSet[str]
            hook: Callable
        """,
    # ARCH007 negative.
    "repro/fleet/mix.py": """
        from dataclasses import dataclass
        from typing import ClassVar, Mapping

        @dataclass(frozen=True)
        class Mix:
            counts: tuple[int, ...]
            weights: Mapping[str, float]
            SEEN: ClassVar[set] = set()
        """,
    # ARCH008 positive: a cross-module chain from run_shard, through a
    # relative import, to a wall-clock sink two modules away.
    # ARCH011 positive: ShardSpec reaches a plain mutable class.
    "repro/microbench/campaign.py": """
        from dataclasses import dataclass

        from ..core.fit import Fit
        from ..store.stamp import stamp_entry

        @dataclass(frozen=True)
        class ShardSpec:
            fit: Fit
            n: int

        def run_shard(spec):
            return stamp_entry(spec)
        """,
    "repro/store/stamp.py": """
        from repro.store.clock import now

        def stamp_entry(spec):
            return {"created": now(), "spec": spec}
        """,
    "repro/store/clock.py": """
        import time

        def now():
            return time.time()
        """,
    "repro/core/fit.py": """
        class Fit:
            def __init__(self, params):
                self.params = params
        """,
    # ARCH008/ARCH011 negative: run_campaign reaches only an explicit
    # generator (through ``from . import``); FittedPlatform is frozen.
    "repro/microbench/suite.py": """
        from dataclasses import dataclass
        from typing import ClassVar

        from . import helpers

        @dataclass(frozen=True)
        class FittedPlatform:
            name: str
            params: tuple
            KIND: ClassVar[str] = "fit"

        def run_campaign(seed):
            return helpers.seeded_draw(seed)
        """,
    "repro/microbench/helpers.py": """
        import numpy as np

        def seeded_draw(seed):
            return np.random.default_rng(seed).random()
        """,
    # ARCH008 suppressed at the entry endpoint.
    "repro/machine/engine.py": """
        from repro.store.stamp import stamp_entry

        class Engine:
            def run_batch(self, spec):  # archlint: disable=ARCH008
                return stamp_entry(spec)
        """,
    # ARCH009 negative: definitions and matching calls.
    "repro/measurement/power.py": """
        def cap_for(budget_seconds):
            return budget_seconds * 2

        def elapsed_seconds(start_seconds):
            return start_seconds

        def plan(wall_seconds):
            return cap_for(wall_seconds)
        """,
    # ARCH009 positive: a keyword mismatch across modules and a
    # return-unit mismatch at an assignment.
    "repro/measurement/budget.py": """
        from .power import cap_for, elapsed_seconds

        def schedule(total_joules):
            wait_joules = elapsed_seconds(1)
            return cap_for(budget_seconds=total_joules), wait_joules
        """,
    # ARCH010 positive: a broad handler (ARCH003-clean: it records the
    # error) swallows a fault raised below the retry loop.  ARCH010
    # negative: the re-raising handler in retry.py.
    "repro/microbench/runner.py": """
        from repro.rig.channel import read_channel
        from repro.rig.retry import settle

        class BenchmarkRunner:
            def execute(self):
                settle()
                return read_channel()
        """,
    "repro/rig/channel.py": """
        from repro.rig.driver import sample

        def read_channel():
            try:
                return sample()
            except Exception as err:
                print(err)
                return None
        """,
    "repro/rig/retry.py": """
        from repro.rig.driver import sample

        def settle():
            try:
                return sample()
            except Exception:
                raise
        """,
    "repro/rig/driver.py": """
        class RigFaultError(Exception):
            pass

        def sample():
            raise RigFaultError("bad channel")
        """,
}


def write_corpus(root: Path) -> None:
    """Materialize the corpus with ``__init__.py`` package markers."""
    for rel, source in CORPUS.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip("\n"))
        for parent in path.relative_to(root).parents:
            if parent != Path("."):
                marker = root / parent / "__init__.py"
                if not marker.exists():
                    marker.write_text("")


@pytest.fixture()
def corpus(tmp_path, monkeypatch):
    """The corpus under a temporary root, which becomes the cwd so the
    findings' (relative) paths -- and so their fingerprints -- are
    stable."""
    write_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_driver_reproduces_golden_findings(corpus):
    findings, stats = lint_project(["repro"])
    golden = json.loads(GOLDEN.read_text())
    assert [f.to_dict() for f in findings] == golden
    assert stats.files == len(list(corpus.rglob("*.py")))


def test_golden_covers_every_code(corpus):
    golden = json.loads(GOLDEN.read_text())
    codes = {entry["code"] for entry in golden}
    assert codes == {f"ARCH{n:03d}" for n in range(12)}


def test_cached_and_parallel_runs_match_golden(corpus):
    golden = json.loads(GOLDEN.read_text())
    for _ in range(2):  # cold, then warm.
        findings, _ = lint_project(["repro"], jobs=2, cache_dir=".cache")
        assert [f.to_dict() for f in findings] == golden
