"""The one campaign-and-fit recipe and the settings it runs under.

``CampaignSettings`` is the only declaration of the campaign knobs and
:func:`~repro.microbench.suite.fit_platform` the only recipe; these
tests hold every path that produces theta-hat to it:

* the settings reject out-of-range knobs at construction;
* the ``theta="fitted"`` lookup and the sequential fit agree byte for
  byte;
* the shard path reproduces ``tests/data/shard_fits.json`` exactly --
  float.hex values recorded from a quick two-platform
  :class:`~repro.microbench.campaign.CampaignRunner` run, clean and
  under a seeded fault plan that retries and quarantines cells.

Regenerate the shard pin deliberately (after an intentional pipeline
change) with::

    PYTHONPATH=src python -m pytest tests/microbench/test_fit_platform.py --update-golden
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
from pathlib import Path

import pytest

from repro.experiments.common import fitted_platform_config, run_platform_fit
from repro.faults.plan import FaultPlan
from repro.microbench.campaign import CampaignRunner
from repro.microbench.suite import CampaignSettings

PIN_PATH = Path(__file__).parent.parent / "data" / "shard_fits.json"
PIN_PLATFORMS = ("gtx-titan", "nuc-gpu")
PIN_SETTINGS = CampaignSettings(max_retries=1).scaled_down()
PIN_FAULTS = {
    "clean": None,
    "faulted": FaultPlan(sample_dropout=0.02, run_failure_rate=0.3, seed=7),
}


class TestSettingsBounds:
    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("replicates", 0, "replicates must be >= 1"),
            ("replicates", -1, "replicates must be >= 1"),
            ("points_per_octave", 0, "points_per_octave must be >= 1"),
            ("target_duration", 0.0, "target_duration must be positive"),
            ("target_duration", -0.1, "target_duration must be positive"),
            ("target_duration", math.nan, "target_duration must be positive"),
            ("max_retries", -1, "max_retries must be non-negative"),
        ],
    )
    def test_rejects_out_of_range(self, field, bad, message):
        with pytest.raises(ValueError, match=message):
            CampaignSettings(**{field: bad})

    def test_accepts_the_edges(self):
        edge = CampaignSettings(
            replicates=1, points_per_octave=1, target_duration=1e-9,
            max_retries=0,
        )
        assert edge.max_retries == 0

    def test_scaled_down_keeps_seed_faults_and_retries(self):
        plan = FaultPlan(seed=1, run_failure_rate=0.1)
        full = CampaignSettings(seed=5, faults=plan, max_retries=4)
        small = full.scaled_down()
        assert (small.seed, small.faults, small.max_retries) == (5, plan, 4)
        assert (small.replicates, small.include_double) == (1, False)


@pytest.mark.parametrize("platform_id", ["gtx-titan", "xeon-phi"])
def test_fitted_config_matches_sequential_fit(platform_id, quick_settings):
    """The theta="fitted" lookup and the sequential fit are one model."""
    theta = fitted_platform_config(platform_id, quick_settings).truth
    fit = run_platform_fit(platform_id, quick_settings)
    assert pickle.dumps(theta) == pickle.dumps(fit.fitted_params)


def _hex(value):
    """``value`` with every float as ``float.hex`` (exact, JSON-safe)."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _hex(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def compute_pin() -> dict:
    out = {}
    for case, plan in PIN_FAULTS.items():
        runner = CampaignRunner(
            PIN_PLATFORMS,
            settings=dataclasses.replace(PIN_SETTINGS, faults=plan),
            max_workers=1,
        )
        fits = runner.run()
        shards = {s.platform_id: s for s in runner.report.shards}
        out[case] = {
            pid: {
                "seed": shards[pid].seed,
                "n_runs": fit.campaign.n_runs,
                "runs_attempted": shards[pid].counters.runs_attempted,
                "runs_failed": shards[pid].counters.runs_failed,
                "retries": shards[pid].counters.retries,
                "quarantined": len(shards[pid].quarantined),
                "fitted_params": _hex(fit.fitted_params),
                "uncapped_params": _hex(fit.uncapped.params),
            }
            for pid, fit in fits.items()
        }
    return out


@pytest.fixture(scope="module")
def computed_pin(request):
    computed = compute_pin()
    if request.config.getoption("--update-golden"):
        payload = {
            "_meta": {
                "description": "Exact (float.hex) shard-path fits of a "
                "quick 2-platform CampaignRunner run",
                "platforms": list(PIN_PLATFORMS),
                "settings": "CampaignSettings(max_retries=1).scaled_down(), "
                "faults per case",
                "faults": {
                    case: None if plan is None else repr(plan)
                    for case, plan in PIN_FAULTS.items()
                },
            },
            **computed,
        }
        PIN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return computed


@pytest.mark.parametrize("case", sorted(PIN_FAULTS))
def test_shard_path_matches_pin(case, computed_pin):
    pinned = json.loads(PIN_PATH.read_text())
    assert set(computed_pin[case]) == set(PIN_PLATFORMS)
    for pid in PIN_PLATFORMS:
        assert computed_pin[case][pid] == pinned[case][pid], (
            f"{case}/{pid}: shard-path fit drifted from {PIN_PATH.name}"
        )


def test_pin_exercises_retries_and_quarantine():
    """The faulted case must keep the retry budget in play, or the pin
    could not catch ``max_retries`` being dropped on the way to a shard."""
    faulted = json.loads(PIN_PATH.read_text())["faulted"]
    assert all(entry["retries"] > 0 for entry in faulted.values())
    assert all(entry["quarantined"] > 0 for entry in faulted.values())
