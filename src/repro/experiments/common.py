"""Shared campaign execution for the experiment reproductions.

Table I and Fig. 4 both consume the full per-platform microbenchmark
campaigns; running them once and sharing the fits keeps the experiment
modules declarative.  ``CampaignSettings`` (re-exported from
:mod:`repro.microbench.suite`) scales campaign size down for quick runs
(benchmarks) and up for higher-fidelity reproduction.

Every path below runs the one campaign-and-fit recipe,
:func:`repro.microbench.suite.fit_platform`.  Two execution paths
produce the fits:

* the **sequential path** (``max_workers=None``): every platform's
  campaign runs in this process with ``settings.seed`` directly;
* the **parallel path** (``max_workers`` given): platforms are
  sharded across a process pool by
  :class:`repro.microbench.campaign.CampaignRunner`, each shard
  running on its own child seed spawned from ``settings.seed`` (so
  the result is independent of worker count, though the spawned seeds
  differ from the sequential path's shared seed).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..machine.platforms import PLATFORM_IDS, platform
from ..microbench.campaign import CampaignRunner
from ..microbench.suite import CampaignSettings, FittedPlatform, fit_platform
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder

if TYPE_CHECKING:
    from ..machine.config import PlatformConfig
    from ..store.store import CampaignStore

__all__ = [
    "CampaignSettings",
    "fitted_platform_config",
    "run_all_fits",
    "run_platform_fit",
]


def run_platform_fit(
    platform_id: str, settings: CampaignSettings | None = None
) -> FittedPlatform:
    """Run and fit one platform's campaign."""
    return fit_platform(platform(platform_id), settings or CampaignSettings())


def fitted_platform_config(
    platform_id: str,
    settings: CampaignSettings | None = None,
    *,
    store: "CampaignStore | None" = None,
    refresh: bool = False,
    recorder: TraceRecorder = NULL_RECORDER,
) -> "PlatformConfig":
    """The platform with its truth replaced by campaign-fitted theta-hat.

    This is the one shared "theta": "fitted" resolution path: the
    predict service (:mod:`repro.serve.theta`) and the fleet optimizer
    (:mod:`repro.fleet`) both call it, so a campaign store warmed by
    any of them (or by ``archline campaign --cache``) replays the same
    campaign and fit entries bit-identically for all of them.  It runs
    the same :func:`~repro.microbench.suite.fit_platform` recipe as
    :func:`run_platform_fit`, so both yield the same theta-hat.
    """
    base = platform(platform_id)
    fit = fit_platform(
        base,
        settings or CampaignSettings(),
        recorder=recorder,
        store=store,
        refresh=refresh,
    )
    return replace(base, truth=fit.fitted_params)


def run_all_fits(
    settings: CampaignSettings | None = None,
    platform_ids: tuple[str, ...] | None = None,
    *,
    max_workers: int | None = None,
) -> dict[str, FittedPlatform]:
    """Run and fit campaigns for every (or the given) platform.

    ``max_workers=None`` keeps the sequential path; any integer
    (including 1) routes through the parallel
    :class:`~repro.microbench.campaign.CampaignRunner` with spawned
    per-shard seeds -- reproducible for any worker count.
    """
    ids = platform_ids if platform_ids is not None else PLATFORM_IDS
    if max_workers is None:
        return {pid: run_platform_fit(pid, settings) for pid in ids}
    runner = CampaignRunner(ids, settings=settings, max_workers=max_workers)
    return runner.run()
