"""Canonical encoding and cell-key construction."""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

import repro.machine.engine as engine_module
from repro.faults.plan import FaultPlan
from repro.machine.platforms import platform
from repro.microbench.campaign import ShardSpec
from repro.microbench.suite import CampaignSettings
from repro.store import (
    campaign_key,
    canonical,
    engine_fingerprint_version,
    fingerprint,
    fit_key,
    platform_fingerprint,
    shard_key,
)


class TestCanonical:
    def test_floats_encode_bit_exact(self):
        assert canonical(0.1) == (0.1).hex()
        # repr rounding would collapse these; hex() keeps them apart.
        assert canonical(0.1 + 0.2) != canonical(0.3)

    def test_signed_zeros_are_distinct(self):
        assert canonical(0.0) != canonical(-0.0)

    def test_int_and_float_do_not_collide(self):
        assert canonical(1) != canonical(1.0)

    def test_mapping_insertion_order_is_not_content(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_mapping_rejects_non_string_keys(self):
        with pytest.raises(TypeError, match="non-string key"):
            canonical({1: "x"})

    def test_rejects_sets(self):
        with pytest.raises(TypeError, match="unordered"):
            canonical({"items": {1, 2, 3}})

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError, match="no stable canonical form"):
            canonical(object())

    def test_numpy_scalars_normalise_to_python(self):
        assert canonical(np.float64(0.5)) == canonical(0.5)
        assert canonical(np.int64(7)) == canonical(7)

    def test_ndarray_hashed_by_content(self):
        a = np.arange(4.0)
        b = np.arange(4.0)
        assert canonical(a) == canonical(b)
        assert canonical(a) != canonical(a[::-1].copy())

    def test_dataclass_type_name_participates(self):
        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        assert canonical(A(1)) != canonical(B(1))
        assert canonical(A(1)) == canonical(A(1))


def spec(platform_id: str = "gtx-titan", **settings) -> ShardSpec:
    return ShardSpec(platform_id, CampaignSettings(**{"seed": 7, **settings}))


def _changed(value):
    """A different value of the same kind, for every field type
    ``CampaignSettings`` declares (a new type fails here loudly)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2.0
    if value is None:  # faults
        return FaultPlan(seed=3, run_failure_rate=0.1)
    raise TypeError(f"no alternative value for {value!r}")


class TestShardKey:
    def test_stable_across_calls(self):
        config = platform("gtx-titan")
        assert shard_key(config, spec()) == shard_key(config, spec())

    def test_seed_changes_key(self):
        config = platform("gtx-titan")
        assert shard_key(config, spec()) != shard_key(config, spec(seed=8))

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(CampaignSettings)]
    )
    def test_every_settings_field_changes_key(self, name):
        """The key covers every campaign knob: changing any one field
        of the shard's settings must address a different cell."""
        config = platform("gtx-titan")
        base = spec()
        edited = replace(
            base,
            settings=replace(
                base.settings,
                **{name: _changed(getattr(base.settings, name))},
            ),
        )
        assert edited.settings != base.settings
        assert shard_key(config, base) != shard_key(config, edited)

    def test_trace_and_cache_fields_do_not_change_key(self):
        """Telemetry and cache control must never dirty a cell."""
        config = platform("gtx-titan")
        base = shard_key(config, spec())
        assert base == shard_key(config, replace(spec(), trace=True))
        assert base == shard_key(
            config,
            replace(spec(), cache_dir="/elsewhere", cache_refresh=True),
        )

    def test_report_shape_changes_key(self, monkeypatch):
        """A shard cell stores a ShardReport; a change of its shape must
        address new cells, or old ones replay with new fields at their
        defaults."""
        # The package re-exports the function ``fingerprint`` under the
        # module's own name, so fetch the module itself.
        fingerprint_module = importlib.import_module("repro.store.fingerprint")
        config = platform("gtx-titan")
        base = shard_key(config, spec())
        monkeypatch.setattr(
            fingerprint_module,
            "_SHARD_REPORT_SHAPE",
            fingerprint_module._SHARD_REPORT_SHAPE + 1,
        )
        assert shard_key(config, spec()) != base

    def test_platform_config_edit_changes_key(self):
        config = platform("gtx-titan")
        edited = replace(config, idle_power=config.idle_power * 1.01)
        assert shard_key(config, spec()) != shard_key(edited, spec())
        assert platform_fingerprint(config) != platform_fingerprint(edited)

    def test_other_platforms_unaffected_by_one_edit(self):
        """Editing one platform's config dirties only its own cells."""
        titan = platform("gtx-titan")
        phi = platform("xeon-phi")
        phi_key = shard_key(phi, spec(platform_id="xeon-phi"))
        edited_titan = replace(titan, idle_power=titan.idle_power * 2)
        assert shard_key(titan, spec()) != shard_key(edited_titan, spec())
        assert phi_key == shard_key(phi, spec(platform_id="xeon-phi"))

    def test_fault_plan_changes_key(self):
        config = platform("gtx-titan")
        plan = FaultPlan(seed=3, run_failure_rate=0.1)
        assert shard_key(config, spec()) != shard_key(
            config, spec(faults=plan)
        )
        # None and the all-zero plan behave identically but are
        # distinct configurations -- distinct cells.
        assert shard_key(config, spec()) != shard_key(
            config, spec(faults=FaultPlan.zero(seed=0))
        )

    def test_engine_version_changes_key(self, monkeypatch):
        config = platform("gtx-titan")
        before = shard_key(config, spec())
        monkeypatch.setattr(
            engine_module,
            "ENGINE_FINGERPRINT_VERSION",
            engine_module.ENGINE_FINGERPRINT_VERSION + 1,
        )
        assert engine_fingerprint_version() == (
            engine_module.ENGINE_FINGERPRINT_VERSION
        )
        assert shard_key(config, spec()) != before


class TestCampaignAndFitKeys:
    def test_campaign_key_covers_knobs(self):
        config = platform("gtx-titan")

        def key(**overrides):
            base = dict(
                seed=0,
                replicates=1,
                intensities=None,
                target_duration=0.1,
                include_double=False,
                include_cache=True,
                include_chase=True,
                faults=None,
                max_retries=2,
            )
            base.update(overrides)
            return campaign_key(config, **base)

        assert key() == key()
        assert key() != key(seed=1)
        assert key() != key(replicates=2)
        assert key() != key(intensities=[1.0, 2.0])
        assert key(intensities=[1.0]) == key(intensities=np.array([1.0]))

    def test_fit_key_covers_rng_state(self, quick_settings):
        from repro.machine.platforms import platform as plat
        from repro.microbench.suite import run_campaign

        campaign = run_campaign(
            plat("pandaboard-es"),
            seed=quick_settings.seed,
            replicates=1,
            include_double=False,
            include_chase=False,
        )
        same_a = fit_key(
            campaign, anchor_times=True, rng=np.random.default_rng(1)
        )
        same_b = fit_key(
            campaign, anchor_times=True, rng=np.random.default_rng(1)
        )
        assert same_a == same_b
        assert same_a != fit_key(
            campaign, anchor_times=True, rng=np.random.default_rng(2)
        )
        # A consumed generator is a different optimiser input.
        rng = np.random.default_rng(1)
        rng.random()
        assert same_a != fit_key(campaign, anchor_times=True, rng=rng)
        assert same_a != fit_key(campaign, anchor_times=False, rng=None)
