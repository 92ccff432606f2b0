"""``procure``: fleet procurement over campaign-fitted theta-hat.

Set-up (timed in fresh interpreters, see ``probe.py``) fills a new
campaign store with the fitted parameters of all twelve platforms --
the store-write path.  The run then solves a seeded stream of workload
histograms (4, 6, 8 and 12 bins, cycled) under binding power and cost
budgets.  Each solve resolves theta-hat from that store (the store-read
path), then ``evaluate_fleet`` -> ``FleetInstance.from_matrix`` ->
``solve``, the path of ``archline fleet --theta fitted --cache``.  The
stream is replayed while the run's seconds last; each histogram's time
is corrected for the host's speed (``hostspeed``), and its median over
the passes is used.

End-to-end metrics: ``heavy_ms`` is one 12-bin histogram (the solver's
polish cap decides it), ``light_ms`` one 4-bin histogram (theta-hat
resolution from the store dominates it),
``rate_per_s`` histograms solved per second, ``good_share`` the share
of solves proven optimal.  A solve that gives up (status ``unknown``:
the polish hit its state cap without an incumbent) is a measured
outcome that lowers ``good_share``, not a failed check; claiming
``infeasible`` is a failed check, since the budgets come with a
feasible witness.
"""

from __future__ import annotations

import math
import time

from common import Context, Outcome, passes_within, probe_setup, self_peak_rss_mb, setup_times
from hostspeed import HostSpeed
from inputs import fleet_histograms
from stats import column_medians, median

#: Rounds of the 4/6/8/12-bin cycle in one stream (a pass takes about
#: 6 s, so a 15 s run makes two).
CYCLES = 3
#: Store fills per run (each a fresh interpreter); ``setup_s`` is their
#: median.
FILLS = 3
_TOL = 1e-9


def budgets(matrix, workload, offers) -> tuple[float, float]:
    """``(power, cost)`` budgets that bind.

    Per bin, take the single-platform cover of least power and the one
    of least cost.  Starting from all least-power covers, switch bins to
    their least-cost cover (best cost saved per watt added first) until
    the cost is halfway to the all-least-cost total.  That mix is a
    feasible witness; its power and cost are the budgets, so both
    constrain the optimum.
    """
    options = []
    for bin_ in workload.bins:
        covers = []
        for entry in matrix.entries:
            if entry.bin_label == bin_.label:
                nodes = math.ceil(bin_.jobs / entry.jobs_per_node)
                covers.append((nodes * entry.node_power, nodes * offers[entry.platform_id].unit_cost))
        options.append((min(covers), min(covers, key=lambda c: (c[1], c[0]))))
    power = sum(low_power[0] for low_power, _ in options)
    cost = sum(low_power[1] for low_power, _ in options)
    target = cost - 0.5 * (cost - sum(low_cost[1] for _, low_cost in options))

    def watts_per_saving(option):
        (p0, c0), (p1, c1) = option
        return (p1 - p0) / (c0 - c1)

    for (p0, c0), (p1, c1) in sorted((o for o in options if o[0][1] > o[1][1]), key=watts_per_saving):
        if cost <= target:
            break
        power += p1 - p0
        cost += c1 - c0
    return power, cost


class Stream:
    """The seeded histograms with their budgets, and the timed solve."""

    def __init__(self, ctx: Context, store_dir) -> None:
        from repro.experiments.common import CampaignSettings
        from repro.fleet import WorkloadBin, WorkloadSpec, default_offer
        from repro.machine.platforms import PLATFORM_IDS
        from repro.store.store import CampaignStore

        self.store = CampaignStore(store_dir)
        self.settings = CampaignSettings()
        self.platforms = PLATFORM_IDS
        self.offers = {pid: default_offer(pid) for pid in PLATFORM_IDS}
        self.items = []
        configs = self.configs()
        from repro.fleet.evaluate import evaluate_fleet

        for hist in fleet_histograms(ctx.seed, CYCLES):
            workload = WorkloadSpec(
                bins=tuple(WorkloadBin(jobs=jobs, algorithm=a, n=n) for a, n, jobs in hist),
                horizon=3600.0,
            )
            matrix = evaluate_fleet(workload, configs)
            self.items.append((workload, *budgets(matrix, workload, self.offers)))

    def configs(self) -> dict:
        from repro.experiments import common

        return {
            pid: common.fitted_platform_config(pid, self.settings, store=self.store)
            for pid in self.platforms
        }

    def solve(self, workload, power_budget: float, cost_budget: float):
        """One histogram, theta-hat resolution included."""
        from repro.fleet import evaluate, solver

        matrix = evaluate.evaluate_fleet(workload, self.configs())
        instance = solver.FleetInstance.from_matrix(
            matrix, workload, self.offers, power_budget=power_budget, cost_budget=cost_budget
        )
        return instance, solver.solve(instance)


def check_solution(out: Outcome, instance, solution, label: str) -> None:
    ok = solution.status != "infeasible"
    if solution.status in ("optimal", "feasible"):
        covered = [0.0] * len(instance.demands)
        for k, nodes in enumerate(solution.nodes):
            covered[instance.pair_bin[k]] += instance.pair_rate[k] * nodes
        ok = (
            solution.power <= instance.power_budget * (1 + _TOL)
            and solution.cost <= instance.cost_budget * (1 + _TOL)
            and all(c >= d * (1 - _TOL) for c, d in zip(covered, instance.demands))
            and solution.objective_value >= solution.lp_bound * (1 - _TOL)
        )
    out.check(ok, f"{label}: {solution.status} answer breaks budgets, demand or the LP bound, or denies the witness")


def one_pass(stream: Stream, speed: HostSpeed, out: Outcome, reference: list | None) -> tuple[list, list, list]:
    """Solve the stream once: ``(corrected seconds, wall seconds,
    solutions)``, one entry per histogram."""
    corrected, walls, solutions = [], [], []
    for i, (workload, power, cost) in enumerate(stream.items):
        (instance, solution), wall, fixed = speed.timed(lambda: stream.solve(workload, power, cost))
        corrected.append(fixed)
        walls.append(wall)
        check_solution(out, instance, solution, f"histogram {i}")
        solutions.append(solution)
    if reference is not None:  # repr: a NaN LP bound must equal itself.
        out.check(repr(solutions) == repr(reference), "solutions differ between passes of one stream")
    return corrected, walls, solutions


def run(ctx: Context) -> Outcome:
    out = Outcome()
    stores = [ctx.work / f"store-{k}" for k in range(FILLS)]
    if ctx.trace:
        return run_traced(ctx, out, stores[0])
    speed = HostSpeed()
    fills = iter(stores)
    setup_walls, setups = setup_times(speed, FILLS, lambda: probe_setup(ctx, "procure", str(next(fills))))
    stream = Stream(ctx, stores[-1])
    passes, walls, reference = [], [], None
    for _ in passes_within(ctx.seconds):
        corrected, wall, reference = one_pass(stream, speed, out, reference)
        passes.append(corrected)
        walls.append(sum(wall))
    per_histogram = column_medians(passes)
    sizes = [len(workload.bins) for workload, _, _ in stream.items]
    heavy = [t for bins, t in zip(sizes, per_histogram) if bins == 12]
    light = [t for bins, t in zip(sizes, per_histogram) if bins == 4]
    optimal = sum(s.status == "optimal" for s in reference) / len(reference)
    gave_up = sum(s.status == "unknown" for s in reference)
    rate = len(stream.items) / sum(per_histogram)
    out.metrics.update(
        setup_s=median(setups),
        peak_rss_mb=self_peak_rss_mb(),
        heavy_ms=median(heavy) * 1e3,
        light_ms=median(light) * 1e3,
        rate_per_s=rate,
        good_share=optimal,
    )
    out.report += [
        f"procure: procure_solves_per_s {rate:.4f} 1/s corrected, {len(stream.items) / median(walls):.4f} 1/s wall "
        f"({len(stream.items)} histograms, medians of {len(passes)} passes)",
        f"procure: procure_optimal_share {optimal:.4f} share; {gave_up} solve(s) gave up (status unknown); "
        f"12-bin median {median(heavy) * 1e3:.1f} ms (n={len(heavy)}), "
        f"4-bin median {median(light) * 1e3:.1f} ms (n={len(light)}), corrected",
        f"procure: setup_s {median(setups):.4f} s corrected, {median(setup_walls):.4f} s wall (medians of "
        f"{len(setups)}, store fill included); peak_rss_mb {self_peak_rss_mb():.1f} MB",
    ]
    return out


def run_traced(ctx: Context, out: Outcome, store_dir) -> Outcome:
    """A traced in-process store fill, then one untraced and one traced
    pass of the stream."""
    from common import importtime_metrics
    from layers import install, layer_report
    from tracer import Tracer

    tracer = Tracer()
    install(tracer, "campaign", "procure")
    started = time.perf_counter()
    try:
        stream = Stream(ctx, store_dir)  # misses: campaigns, fits, puts
    finally:
        tracer.restore()
    fill = time.perf_counter() - started
    speed = HostSpeed()
    _, walls, reference = one_pass(stream, speed, out, None)
    untraced = sum(walls)
    install(tracer, "campaign", "procure")
    try:
        _, walls, _ = one_pass(stream, speed, out, reference)
    finally:
        tracer.restore()
    traced = sum(walls)
    metrics = layer_report(tracer, fill + traced)
    metrics.update(importtime_metrics(ctx))
    metrics["trace.wall_s"] = fill + traced
    metrics["trace.overhead_s"] = traced - untraced
    out.metrics = metrics
    out.report.append(
        f"procure (traced): store fill {fill:.3f} s, stream pass {traced:.3f} s traced vs "
        f"{untraced:.3f} s untraced; store gets {metrics['store.get.calls']:.0f} "
        f"({metrics['store.get.hits']:.0f} hits), puts {metrics['store.put.calls']:.0f}"
    )
    return out

