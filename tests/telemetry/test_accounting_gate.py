"""The run-accounting identities are checked wherever counters leave.

``RunCounters.check`` holds ``runs_attempted == n_runs + runs_failed``
and ``runs_failed == retries + quarantined``.  The campaign trace
writer and the trajectory suite's campaign metrics both refuse a
shard that breaks either identity, naming the shard, before they emit
anything.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.microbench.campaign import CampaignReport, ShardReport
from repro.microbench.runner import QuarantinedCell, RunCounters
from repro.telemetry.jsonl import read_trace, write_trace
from repro.trajectory.suite import _campaign_metrics

CELL = QuarantinedCell(
    platform="nuc-gpu", benchmark="intensity", kernel="k", attempts=2,
    last_error="injected",
)

#: 10 accepted runs, 3 failed attempts: 2 retried, 1 retired its cell.
GOOD = ShardReport(
    platform_id="nuc-gpu",
    seed=1,
    n_runs=10,
    wall_seconds=1.0,
    counters=RunCounters(
        runs_attempted=13, runs_failed=3, retries=2, calibration_misses=4
    ),
    quarantined=(CELL,),
)

BROKEN = {
    # An attempt that was neither accepted nor failed.
    "runs_attempted": dataclasses.replace(
        GOOD, counters=dataclasses.replace(GOOD.counters, runs_attempted=14)
    ),
    # A failure that was neither retried nor quarantined.
    "runs_failed": dataclasses.replace(
        GOOD,
        n_runs=9,
        counters=dataclasses.replace(GOOD.counters, runs_failed=4),
    ),
}


def _report(*shards: ShardReport) -> CampaignReport:
    return CampaignReport(shards=shards, workers=1, wall_seconds=1.0)


def _ok_shard(platform_id: str) -> ShardReport:
    return ShardReport(
        platform_id=platform_id, seed=0, n_runs=0, wall_seconds=0.5
    )


class TestRunCounters:
    def test_field_order_is_the_export_order(self):
        assert [f.name for f in dataclasses.fields(RunCounters)] == [
            "runs_attempted",
            "runs_failed",
            "retries",
            "rejected",
            "runs_skipped",
            "calibration_hits",
            "calibration_misses",
            "samples_dropped",
            "samples_corrupted",
        ]

    def test_add_is_field_wise(self):
        a = RunCounters(*range(1, 10))
        b = RunCounters(*range(10, 100, 10))
        assert a + b == RunCounters(*(i + 10 * i for i in range(1, 10)))
        assert a + RunCounters() == a

    def test_campaign_counters_sum_the_shards(self):
        report = _report(GOOD, dataclasses.replace(GOOD, platform_id="x"))
        assert report.counters == GOOD.counters + GOOD.counters

    def test_good_counters_pass(self):
        GOOD.counters.check(GOOD.n_runs, len(GOOD.quarantined))
        assert GOOD.checked_counters() is GOOD.counters

    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_check_names_the_failed_identity(self, broken):
        shard = BROKEN[broken]
        with pytest.raises(ValueError, match=broken):
            shard.counters.check(shard.n_runs, len(shard.quarantined))
        with pytest.raises(ValueError, match="shard 'nuc-gpu'"):
            shard.checked_counters()


class TestExportGate:
    def test_good_report_exports(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, _report(_ok_shard("gtx-titan"), GOOD))
        counters = {
            r["name"]: r["value"]
            for r in read_trace(path)
            if r["type"] == "counter" and r["shard"] == "nuc-gpu"
        }
        assert counters["runs_attempted"] == 13.0
        assert counters["calibration_misses"] == 4.0
        metrics = _campaign_metrics(
            SimpleNamespace(report=_report(_ok_shard("gtx-titan"), GOOD))
        )
        assert metrics["runs_failed"] == 3
        assert metrics["quarantined_cells"] == 1

    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_write_trace_refuses_before_writing(self, tmp_path, broken):
        path = tmp_path / "trace.jsonl"
        report = _report(_ok_shard("gtx-titan"), BROKEN[broken])
        with pytest.raises(ValueError, match=f"shard 'nuc-gpu'.*{broken}"):
            write_trace(path, report)
        assert not path.exists()

    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_trajectory_metrics_refuse(self, broken):
        runner = SimpleNamespace(
            report=_report(_ok_shard("gtx-titan"), BROKEN[broken])
        )
        with pytest.raises(ValueError, match=f"shard 'nuc-gpu'.*{broken}"):
            _campaign_metrics(runner)
