"""``reproduce``: ``archline all`` on the sequential reference path.

One pass is what ``archline all`` does after import: the twelve
platform campaigns and fits at default ``CampaignSettings`` (seed 2014,
so every pass and every run reproduces the same theta-hat), then every
registered experiment and its report text.  The input is the paper's
fixed campaign; ``--seed`` does not change it.

Passes repeat for the run's seconds.  A pass's parts are the twelve
platform campaigns + fits and the experiments; each part is timed on its
own and corrected for the host's speed (``hostspeed``), and each part's
time is its median over the passes.  End-to-end metrics: ``heavy_ms`` is
one pass (the sum of its parts), ``light_ms`` the median platform's
campaign + fit, ``rate_per_s`` campaign runs measured per second of
pass, ``good_share`` the share of paper claims reproduced.  ``setup_s``
(corrected too) is fresh interpreter to imports done.
"""

from __future__ import annotations

import math

from common import SETUP_REPEATS, Context, Outcome, passes_within, probe_setup, self_peak_rss_mb, setup_times
from hostspeed import HostSpeed
from stats import column_medians, median

#: Fidelity ceiling on the median |theta-hat/theta - 1|; the fixed
#: campaign gives 0.0255, so only a change of model trips it.
THETA_ERR_LIMIT = 0.05


def theta_errors(fits: dict) -> list[float]:
    """|fitted/true - 1| over every fitted constant of every platform."""

    def constants(p) -> dict[str, float]:
        out = {
            "tau_flop": p.tau_flop,
            "tau_mem": p.tau_mem,
            "eps_flop": p.eps_flop,
            "eps_mem": p.eps_mem,
            "pi1": p.pi1,
        }
        if math.isfinite(p.delta_pi):
            out["delta_pi"] = p.delta_pi
        if p.tau_flop_double is not None:
            out["tau_flop_double"] = p.tau_flop_double
            out["eps_flop_double"] = p.eps_flop_double
        for level in p.caches:
            out[f"{level.name}.eps_byte"] = level.eps_byte
            out[f"{level.name}.bandwidth"] = level.bandwidth
        if p.random is not None:
            out["random.eps_access"] = p.random.eps_access
            out["random.rate"] = p.random.rate
        return out

    errors = []
    for fit in fits.values():
        truth = constants(fit.truth)
        for name, value in constants(fit.fitted_params).items():
            errors.append(abs(value / truth[name] - 1.0) if name in truth else math.inf)
    return errors


def one_pass(speed: HostSpeed) -> tuple[dict, dict, list[float], list[float]]:
    """One ``archline all`` pass: ``(fits, results, corrected part
    seconds, wall part seconds)``; the parts are the twelve platforms,
    then the experiments.

    Resolves ``run_platform_fit``/``run_experiment`` through their
    modules at call time, so a traced pass sees the wrapped versions.
    """
    from repro.experiments import common, registry
    from repro.machine.platforms import PLATFORM_IDS

    fits, corrected, walls = {}, [], []
    for pid in PLATFORM_IDS:
        fits[pid], wall, fixed = speed.timed(lambda: common.run_platform_fit(pid, None))
        corrected.append(fixed)
        walls.append(wall)

    def experiments() -> dict:
        results = {
            eid: registry.run_experiment(eid, fits=fits, settings=None)
            for eid in registry.EXPERIMENTS
        }
        for result in results.values():
            result.to_text()
        return results

    results, wall, fixed = speed.timed(experiments)
    return fits, results, corrected + [fixed], walls + [wall]


def check_pass(out: Outcome, fits: dict, results: dict, reference: list[float] | None) -> list[float]:
    """Output checks of one pass; returns its theta-hat errors, which
    must equal ``reference`` (an earlier pass of the same seed)."""
    for eid, result in results.items():
        out.check(result.n_passing == result.n_claims, f"{eid}: {result.n_claims - result.n_passing} diverging claim(s)")
    errors = theta_errors(fits)
    out.check(all(math.isfinite(e) for e in errors), "non-finite or missing theta-hat")
    err = median(errors)
    out.check(err <= THETA_ERR_LIMIT, f"theta-hat error median {err:.4f} > {THETA_ERR_LIMIT}")
    if reference is not None:
        out.check(errors == reference, "theta-hat differs between passes of one seed")
    return errors


def run(ctx: Context) -> Outcome:
    out = Outcome()
    if ctx.trace:
        return run_traced(ctx, out)
    speed = HostSpeed()
    setup_walls, setups = setup_times(speed, SETUP_REPEATS, lambda: probe_setup(ctx, "reproduce"))
    import repro.cli  # noqa: F401  -- the set-up the probes timed.

    passes, walls, reference = [], [], None
    for _ in passes_within(ctx.seconds):
        fits, results, parts, wall_parts = one_pass(speed)
        reference = check_pass(out, fits, results, reference)
        passes.append(parts)
        walls.append(sum(wall_parts))
    n_runs = sum(fit.campaign.n_runs for fit in fits.values())
    parts = column_medians(passes)
    heavy, light = sum(parts), median(parts[:-1])
    err = median(reference)
    claims = sum(r.n_claims for r in results.values())
    passing = sum(r.n_passing for r in results.values())
    out.metrics.update(
        setup_s=median(setups),
        peak_rss_mb=self_peak_rss_mb(),
        heavy_ms=heavy * 1e3,
        light_ms=light * 1e3,
        rate_per_s=n_runs / heavy,
        good_share=passing / claims,
    )
    out.report += [
        f"reproduce: reproduce_s {heavy:.4f} s corrected, {median(walls):.4f} s wall "
        f"(medians of {len(passes)} passes; {n_runs} campaign runs, 12 platforms)",
        f"reproduce: median platform campaign+fit {light * 1e3:.1f} ms corrected",
        f"reproduce: theta_err_median {err:.6f} ratio; claims {passing}/{claims} reproduced",
        f"reproduce: setup_s {median(setups):.4f} s corrected, {median(setup_walls):.4f} s wall "
        f"(medians of {len(setups)}); peak_rss_mb {self_peak_rss_mb():.1f} MB",
    ]
    return out


def run_traced(ctx: Context, out: Outcome) -> Outcome:
    from common import importtime_metrics
    from layers import install, layer_report
    from tracer import Tracer

    import repro.cli  # noqa: F401

    speed = HostSpeed()
    fits, results, _, walls = one_pass(speed)
    untraced = sum(walls)
    reference = check_pass(out, fits, results, None)
    tracer = Tracer()
    install(tracer, "campaign", "experiments")
    try:
        fits, results, _, walls = one_pass(speed)
    finally:
        tracer.restore()
    traced = sum(walls)
    err = median(check_pass(out, fits, results, reference))
    metrics = layer_report(tracer, traced)
    metrics.update(importtime_metrics(ctx))
    metrics["core.fitting.theta_err_median"] = err
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    ranked = sorted(
        (name for name in metrics if name.endswith(".self_s") and name != "other.self_s"),
        key=lambda name: metrics[name],
        reverse=True,
    )
    top_two = {"measurement.rails.split.self_s", "core.fitting.least_squares.self_s"}
    metrics["trace.largest_two_are_split_and_lsq"] = float(set(ranked[:2]) == top_two)
    out.metrics = metrics
    out.report += [
        f"reproduce (traced): largest self times: "
        + ", ".join(f"{name} {metrics[name]:.3f} s" for name in ranked[:4]),
        f"reproduce (traced): rails.split and least_squares are the two largest: "
        f"{'yes' if metrics['trace.largest_two_are_split_and_lsq'] else 'no'}",
        f"reproduce (traced): other {metrics['other.self_s']:.3f} s, overhead {traced - untraced:.3f} s "
        f"(traced {traced:.3f} s vs untraced {untraced:.3f} s)",
    ]
    return out
