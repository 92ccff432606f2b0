"""Full per-platform microbenchmark campaign and parameter recovery.

``run_campaign`` executes everything Section IV describes for one
platform: the single- and double-precision intensity sweeps, the
per-level cache benchmarks, the pointer chase, and the sustained-peak
runs.  ``fit_campaign`` then reproduces Section V-A: jointly fit the
capped and uncapped models to *all* runs (the paper: "These include
runs in which the total data accessed only fits in a given level of
the memory hierarchy"), yielding one complete, *measured* Table I row
that can be compared against the platform's ground truth.

Both functions accept a content-addressed ``store``
(:class:`~repro.store.store.CampaignStore`, docs/CACHE.md): the cell
key covers every input that can change the result, a hit replays the
cached object bit-identically, and a miss computes then publishes.

``CampaignSettings`` is the one declaration of the campaign knobs, and
``fit_platform`` the one campaign-and-fit recipe (intensity grid,
campaign, fit rng ``seed + 1``) that every path producing theta-hat
runs: the sequential fits, the parallel shards and the
``theta="fitted"`` lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.fitting import FitObservations, ModelFit, fit_machine
from ..core.params import CacheLevelParams, MachineParams, RandomAccessParams
from ..faults.plan import FaultPlan
from ..machine.config import PlatformConfig
from ..machine.kernel import DRAM
from ..measurement.powermon import PowerMon
from ..store.fingerprint import campaign_key, fit_key
from ..store.store import CampaignStore
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .cachebench import cache_sweep
from .intensity import balanced_intensities, intensity_sweep
from .peak import peak_flops, peak_stream, sustained_bandwidth, sustained_flops
from .pointer_chase import chase_sweep
from .runner import BenchmarkRunner, Observation, QuarantinedCell

__all__ = [
    "Campaign",
    "CampaignSettings",
    "FittedPlatform",
    "run_campaign",
    "fit_campaign",
    "fit_platform",
    "to_fit_observations",
]


@dataclass(frozen=True)
class CampaignSettings:
    """Knobs controlling campaign size and determinism.

    The only place they are declared: the sequential fits, the parallel
    shards (:class:`~repro.microbench.campaign.ShardSpec` carries one,
    with ``seed`` replaced by the shard's spawned seed), the shard store
    key and the CLI all take a ``CampaignSettings`` whole.
    """

    seed: int = 2014  #: the paper's publication year, for flavour.
    replicates: int = 2
    points_per_octave: int = 3
    target_duration: float = 0.25  #: seconds per calibrated run.
    include_double: bool = True
    include_cache: bool = True
    include_chase: bool = True
    #: Seeded rig-fault model (None = clean rig; the all-zero plan is
    #: bit-for-bit identical to None).
    faults: FaultPlan | None = None
    max_retries: int = 2  #: per-run retry budget under faults.

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.points_per_octave < 1:
            raise ValueError("points_per_octave must be >= 1")
        if not self.target_duration > 0:
            raise ValueError("target_duration must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def scaled_down(self) -> "CampaignSettings":
        """Cheaper settings for smoke tests and benchmark harnesses."""
        return replace(
            self,
            replicates=1,
            points_per_octave=2,
            target_duration=0.1,
            include_double=False,
        )


@dataclass(frozen=True)
class Campaign:
    """Raw measurements of one platform's full benchmark campaign."""

    config: PlatformConfig
    intensity_single: list[Observation]
    intensity_double: list[Observation] = field(default_factory=list)
    cache_obs: dict[str, list[Observation]] = field(default_factory=dict)
    chase_obs: list[Observation] = field(default_factory=list)
    peak_single: list[Observation] = field(default_factory=list)
    peak_double: list[Observation] = field(default_factory=list)
    stream_obs: list[Observation] = field(default_factory=list)
    #: Cells the resilient execution path retired (empty when fault-free);
    #: the fit proceeds on the surviving observations and reporting names
    #: what was dropped.
    quarantined: tuple[QuarantinedCell, ...] = ()

    @property
    def single_precision_runs(self) -> list[Observation]:
        """Every single-precision run, in suite order (the joint fit's
        input set)."""
        out = list(self.intensity_single) + list(self.peak_single)
        out.extend(self.stream_obs)
        for obs in self.cache_obs.values():
            out.extend(obs)
        out.extend(self.chase_obs)
        return out

    @property
    def all_observations(self) -> list[Observation]:
        return (
            self.single_precision_runs
            + list(self.intensity_double)
            + list(self.peak_double)
        )

    @property
    def n_runs(self) -> int:
        return len(self.all_observations)


def run_campaign(
    config: PlatformConfig,
    *,
    seed: int | None = 0,
    replicates: int = 2,
    intensities=None,
    target_duration: float = 0.25,
    powermon: PowerMon | None = None,
    include_double: bool = True,
    include_cache: bool = True,
    include_chase: bool = True,
    runner: BenchmarkRunner | None = None,
    faults: FaultPlan | None = None,
    max_retries: int = 2,
    recorder: TraceRecorder | None = NULL_RECORDER,
    store: CampaignStore | None = None,
    cache_refresh: bool = False,
) -> Campaign:
    """Run the full Section IV benchmark suite on one platform.

    Pass a preconstructed ``runner`` to reuse its calibration cache or
    to inspect its counters afterwards (the parallel campaign shards
    do); ``seed``, ``target_duration``, ``powermon``, ``faults``,
    ``max_retries`` and ``recorder`` are then taken from it and the
    keyword values are ignored.  Under an active fault plan, runs the
    resilient path: persistently failing cells are quarantined
    (recorded on :attr:`Campaign.quarantined`) and the campaign
    completes on what survives.  Each suite stage records a ``sweep``
    span on the runner's recorder (a no-op by default).

    With ``store`` set the campaign is looked up by its content key
    (:func:`repro.store.fingerprint.campaign_key`) first and published
    after computing; a hit replays the cached :class:`Campaign`
    bit-identically.  Incompatible with a preconstructed ``runner``
    (its calibration/fault counters would not advance on a hit -- the
    parallel shards cache at shard granularity instead,
    :func:`repro.microbench.campaign.run_shard`) and with a custom
    ``powermon`` (the instrument changes observations but has no
    stable fingerprint).  ``cache_refresh`` skips the lookup but still
    publishes.
    """
    rec0 = NULL_RECORDER if recorder is None else recorder
    key = ""
    if store is not None:
        if runner is not None:
            raise ValueError(
                "store cannot be combined with a preconstructed runner; "
                "cache at shard granularity instead (run_shard)"
            )
        if powermon is not None:
            raise ValueError(
                "store cannot be combined with a custom powermon: the "
                "instrument changes observations but has no stable "
                "fingerprint"
            )
        key = campaign_key(
            config,
            seed=seed,
            replicates=replicates,
            intensities=intensities,
            target_duration=target_duration,
            include_double=include_double,
            include_cache=include_cache,
            include_chase=include_chase,
            faults=faults,
            max_retries=max_retries,
        )
        if not cache_refresh:
            with rec0.span(
                "cache_lookup", platform=config.name, key=key[:12]
            ):
                cached = store.get(key, kind="campaign")
            if cached is not None:
                return cached
    if runner is None:
        runner = BenchmarkRunner(
            config,
            seed=seed,
            target_duration=target_duration,
            powermon=powermon,
            faults=faults,
            max_retries=max_retries,
            recorder=recorder,
        )
    rec = runner.recorder
    with rec.span("sweep", benchmark="intensity:single"):
        single = intensity_sweep(
            runner, intensities, replicates=replicates, precision="single"
        )
    double: list[Observation] = []
    if include_double and config.truth.tau_flop_double is not None:
        with rec.span("sweep", benchmark="intensity:double"):
            double = intensity_sweep(
                runner, intensities, replicates=replicates, precision="double"
            )
    caches: dict[str, list[Observation]] = {}
    if include_cache:
        with rec.span("sweep", benchmark="cache"):
            caches = cache_sweep(runner, replicates=replicates)
    chase: list[Observation] = []
    if include_chase and config.truth.random is not None:
        with rec.span("sweep", benchmark="pointer_chase"):
            chase = chase_sweep(runner, replicates=max(replicates, 2))
    with rec.span("sweep", benchmark="peaks"):
        peaks_s = peak_flops(
            runner, precision="single", replicates=max(replicates, 2)
        )
        peaks_d: list[Observation] = []
        if include_double and config.truth.tau_flop_double is not None:
            peaks_d = peak_flops(
                runner, precision="double", replicates=max(replicates, 2)
            )
        stream = peak_stream(runner, replicates=max(replicates, 2))
    campaign = Campaign(
        config=config,
        intensity_single=single,
        intensity_double=double,
        cache_obs=caches,
        chase_obs=chase,
        peak_single=peaks_s,
        peak_double=peaks_d,
        stream_obs=stream,
        quarantined=tuple(runner.quarantined),
    )
    if store is not None:
        with rec0.span("cache_store", platform=config.name, key=key[:12]):
            store.put(key, campaign, kind="campaign", platform=config.name)
    return campaign


def to_fit_observations(observations: list[Observation]) -> FitObservations:
    """Convert observation records into the fitting layer's arrays,
    including per-cache-level traffic and random-access columns."""
    if not observations:
        raise ValueError("no observations to fit")
    n = len(observations)
    levels = sorted(
        {
            level
            for o in observations
            for level in o.kernel.traffic
            if level != DRAM
        }
    )
    cache_traffic = {
        level: np.array(
            [o.kernel.traffic.get(level, 0.0) for o in observations]
        )
        for level in levels
    }
    random_accesses = np.array([o.kernel.random_accesses for o in observations])
    return FitObservations(
        W=np.array([o.flops for o in observations]),
        Q=np.array([o.dram_bytes for o in observations]),
        T=np.array([o.wall_time for o in observations]),
        E=np.array([o.energy for o in observations]),
        cache_traffic=cache_traffic,
        random_accesses=random_accesses if np.any(random_accesses > 0) else None,
    )


@dataclass(frozen=True)
class FittedPlatform:
    """The reproduction's Table I row for one platform."""

    config: PlatformConfig
    campaign: Campaign
    capped: ModelFit
    uncapped: ModelFit
    fit_observations: FitObservations
    eps_flop_double: float | None = None
    sustained_flops_double: float | None = None

    @property
    def truth(self) -> MachineParams:
        """Ground-truth parameters this fit should recover."""
        return self.config.truth

    @property
    def caches(self) -> tuple[CacheLevelParams, ...]:
        """Fitted cache levels, with capacities copied from the config
        (capacity is an input to the benchmark, not an estimate)."""
        out = []
        for level in self.capped.params.caches:
            truth_level = self.truth.cache_by_name.get(level.name)
            capacity = None if truth_level is None else truth_level.capacity
            out.append(replace(level, capacity=capacity))
        return tuple(out)

    @property
    def random(self) -> RandomAccessParams | None:
        return self.capped.params.random

    @property
    def fitted_params(self) -> MachineParams:
        """The capped fit's parameters extended with the double-precision
        estimates -- a complete Table I row."""
        base = self.capped.params
        tau_d = (
            None
            if self.sustained_flops_double is None
            else 1.0 / self.sustained_flops_double
        )
        if tau_d is None or self.eps_flop_double is None:
            # Quarantined double-precision cells can leave one of the
            # pair unmeasured; MachineParams requires both or neither.
            return replace(
                base,
                tau_flop_double=None,
                eps_flop_double=None,
                caches=self.caches,
                description=f"fitted from {self.campaign.n_runs} runs",
            )
        return replace(
            base,
            tau_flop_double=tau_d,
            eps_flop_double=self.eps_flop_double,
            caches=self.caches,
            description=f"fitted from {self.campaign.n_runs} runs",
        )

    @property
    def sustained_flops(self) -> float:
        """Best measured single-precision flop/s."""
        return sustained_flops(self.campaign.peak_single)

    @property
    def sustained_bandwidth(self) -> float:
        """Best measured stream bandwidth, B/s."""
        return sustained_bandwidth(self.campaign.stream_obs)


def fit_campaign(
    campaign: Campaign,
    *,
    anchor_times: bool = True,
    rng: np.random.Generator | None = None,
    recorder: TraceRecorder | None = NULL_RECORDER,
    store: CampaignStore | None = None,
    cache_refresh: bool = False,
) -> FittedPlatform:
    """Reproduce the Section V-A fitting procedure on one campaign.

    ``recorder`` (no-op by default) gets one span per model fit
    (capped, uncapped, double), so traced campaigns show how much of a
    shard's wall time the fitting stage consumed.

    With ``store`` set the fit is keyed on the campaign's *content*
    plus the fit options and the ``rng``'s entry state
    (:func:`repro.store.fingerprint.fit_key`).  On a hit the cached
    :class:`FittedPlatform` replays bit-identically and ``rng`` is
    **not consumed** -- callers drawing further values from it must
    treat the generator as campaign-scoped (the shard path constructs
    a fresh one per fit, so this costs nothing there).
    """
    rec = NULL_RECORDER if recorder is None else recorder
    config = campaign.config
    key = ""
    if store is not None:
        key = fit_key(campaign, anchor_times=anchor_times, rng=rng)
        if not cache_refresh:
            with rec.span("cache_lookup", platform=config.name, key=key[:12]):
                cached = store.get(key, kind="fit")
            if cached is not None:
                return cached
    main_obs = to_fit_observations(campaign.single_precision_runs)
    with rec.span("fit", model="capped"):
        capped = fit_machine(
            main_obs, capped=True, anchor_times=anchor_times, name=config.name, rng=rng
        )
    with rec.span("fit", model="uncapped"):
        uncapped = fit_machine(
            main_obs, capped=False, anchor_times=anchor_times, name=config.name, rng=rng
        )

    eps_d: float | None = None
    sustained_d: float | None = None
    if campaign.intensity_double:
        double_obs = to_fit_observations(
            campaign.intensity_double + campaign.peak_double
        )
        with rec.span("fit", model="double"):
            double_fit = fit_machine(
                double_obs,
                capped=True,
                anchor_times=anchor_times,
                name=f"{config.name} (double)",
                rng=rng,
            )
        eps_d = double_fit.params.eps_flop
        # Peaks can be empty when faults quarantined every replicate;
        # the fit then degrades to single precision only.
        if campaign.peak_double:
            sustained_d = sustained_flops(campaign.peak_double)

    fitted = FittedPlatform(
        config=config,
        campaign=campaign,
        capped=capped,
        uncapped=uncapped,
        fit_observations=main_obs,
        eps_flop_double=eps_d,
        sustained_flops_double=sustained_d,
    )
    if store is not None:
        with rec.span("cache_store", platform=config.name, key=key[:12]):
            store.put(key, fitted, kind="fit", platform=config.name)
    return fitted


def fit_platform(
    config: PlatformConfig,
    settings: CampaignSettings,
    *,
    runner: BenchmarkRunner | None = None,
    recorder: TraceRecorder = NULL_RECORDER,
    store: CampaignStore | None = None,
    refresh: bool = False,
) -> FittedPlatform:
    """Run one platform's campaign under ``settings`` and fit it.

    The single campaign-and-fit recipe: the intensity grid is the
    platform's balanced grid at ``settings.points_per_octave``, and the
    fit's generator is seeded with ``settings.seed + 1``.  The campaign
    runs under a ``campaign`` span on ``recorder``.  ``runner``,
    ``store`` and ``refresh`` pass through to :func:`run_campaign` (a
    preconstructed runner must have been built from the same
    ``settings``), and ``store``/``refresh`` also to
    :func:`fit_campaign`.
    """
    grid = balanced_intensities(
        config, points_per_octave=settings.points_per_octave
    )
    with recorder.span("campaign"):
        campaign = run_campaign(
            config,
            seed=settings.seed,
            replicates=settings.replicates,
            intensities=grid,
            target_duration=settings.target_duration,
            include_double=settings.include_double,
            include_cache=settings.include_cache,
            include_chase=settings.include_chase,
            faults=settings.faults,
            max_retries=settings.max_retries,
            runner=runner,
            recorder=recorder,
            store=store,
            cache_refresh=refresh,
        )
    return fit_campaign(
        campaign,
        rng=np.random.default_rng(settings.seed + 1),
        recorder=recorder,
        store=store,
        cache_refresh=refresh,
    )
