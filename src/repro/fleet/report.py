"""Fleet reports: the human table and the bit-deterministic JSON.

The JSON document is the machine artifact CI diffs run-to-run, so it
contains **no wall times, no timestamps, no environment fingerprints**
-- only model outputs, which are deterministic for a fixed workload,
platform set, seed and theta source.  (``--trace`` exists for timing;
it is a separate file precisely so this one stays comparable with
``cmp``.)  Store counters are included when a campaign store backed
fitted-theta resolution: they are part of the *semantics* the
acceptance tests check (a warm store must report hits, not misses),
and CI's determinism check runs with ``--theta truth`` where the
store block is null.
"""

from __future__ import annotations

import math
from typing import Any

from ..report.tables import Table, fmt_pct, fmt_si
from .evaluate import EvaluationMatrix
from .offers import PlatformOffer
from .solver import FleetInstance, FleetSolution, allocations
from .workload import WorkloadSpec

__all__ = ["fleet_report", "render_fleet"]

_SCHEMA = "archline-fleet/1"


def _num(value: float) -> float | None:
    """JSON-safe number: non-finite becomes null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _per_platform(
    instance: FleetInstance, solution: FleetSolution
) -> list[dict[str, Any]]:
    nodes = [0] * len(instance.platform_ids)
    power = [0.0] * len(instance.platform_ids)
    for k, x in enumerate(solution.nodes):
        i = instance.pair_platform[k]
        nodes[i] += x
        power[i] += instance.pair_power[k] * x
    return [
        {
            "platform": pid,
            "nodes": nodes[i],
            "power_watts": power[i],
            "cost": instance.unit_costs[i] * nodes[i],
        }
        for i, pid in enumerate(instance.platform_ids)
        if nodes[i] > 0
    ]


def fleet_report(
    workload: WorkloadSpec,
    instance: FleetInstance,
    solution: FleetSolution,
    matrix: EvaluationMatrix,
    offers: dict[str, PlatformOffer],
    *,
    theta: str,
    store: Any = None,
) -> dict[str, Any]:
    """The machine-readable report (stable key order via sort_keys)."""
    store_block = None
    if store is not None:
        store_block = {
            "hits": store.hits,
            "misses": store.misses,
            "stale": store.stale,
            "puts": store.puts,
        }
    return {
        "schema": _SCHEMA,
        "theta": theta,
        "objective": instance.objective,
        "horizon_seconds": workload.horizon,
        "budgets": {
            "power_watts": _num(instance.power_budget),
            "cost": _num(instance.cost_budget),
        },
        "workload": workload.to_obj(),
        "platforms": [
            {
                "id": pid,
                "unit_cost": offers[pid].unit_cost,
                "max_nodes": _num(offers[pid].max_nodes),
            }
            for pid in instance.platform_ids
        ],
        "solution": {
            "status": solution.status,
            "method": solution.method,
            "objective_value": _num(solution.objective_value),
            "energy_joules": solution.energy,
            "power_watts": solution.power,
            "cost": solution.cost,
            "total_nodes": solution.total_nodes,
            "lp_bound": _num(solution.lp_bound),
            "states_explored": solution.states_explored,
        },
        "allocations": [
            {
                "bin": a.bin_label,
                "platform": a.platform_id,
                "nodes": a.nodes,
                "jobs": a.jobs,
                "power_watts": a.power,
                "energy_joules": a.energy,
                "cost": a.cost,
            }
            for a in allocations(instance, solution)
        ],
        "per_platform": _per_platform(instance, solution),
        "exclusions": [
            {"bin": e.bin_label, "platform": e.platform_id, "reason": e.reason}
            for e in matrix.exclusions
        ],
        "store": store_block,
    }


def _budget_line(label: str, used: float, budget: float, unit: str) -> str:
    if not math.isfinite(budget):
        return f"{label}: {used:,.1f} {unit} (no budget)"
    return (
        f"{label}: {used:,.1f} / {budget:,.1f} {unit} "
        f"({fmt_pct(used / budget)})"
    )


def render_fleet(
    instance: FleetInstance,
    solution: FleetSolution,
    matrix: EvaluationMatrix,
    *,
    theta: str,
) -> str:
    """The human-readable table + summary."""
    title = (
        f"Fleet mix ({solution.status}, {solution.method}, "
        f"objective {instance.objective}, theta {theta})"
    )
    if not solution.solved:
        lines = [title, ""]
        if solution.status == "infeasible":
            lines.append(
                "No node mix covers the workload within the budgets."
            )
        else:
            lines.append(
                "The solver stopped without a verified optimal mix."
            )
        if matrix.exclusions:
            lines.append("")
            lines.append(f"{len(matrix.exclusions)} (bin, platform) "
                         f"pairings excluded:")
            for e in matrix.exclusions:
                lines.append(f"  {e.bin_label} on {e.platform_id}: {e.reason}")
        return "\n".join(lines)

    table = Table(
        columns=["bin", "platform", "nodes", "jobs", "power", "energy",
                 "cost"],
        title=title,
    )
    for a in allocations(instance, solution):
        table.add_row(
            a.bin_label,
            a.platform_id,
            str(a.nodes),
            f"{a.jobs:,.1f}",
            fmt_si(a.power, "W"),
            fmt_si(a.energy, "J"),
            f"{a.cost:,.0f}",
        )
    lines = [table.render(), ""]
    lines.append(
        f"total: {solution.total_nodes} nodes, "
        f"{fmt_si(solution.energy, 'J')} over "
        f"{instance.horizon:,.0f} s"
    )
    lines.append(
        _budget_line("rack power", solution.power, instance.power_budget, "W")
    )
    lines.append(
        _budget_line(
            "procurement cost", solution.cost, instance.cost_budget, "units"
        )
    )
    if math.isfinite(solution.lp_bound) and solution.lp_bound > 0:
        gap = solution.objective_value / solution.lp_bound - 1.0
        lines.append(
            f"LP lower bound: {solution.lp_bound:,.1f} "
            f"(integrality gap <= {fmt_pct(gap)})"
        )
    if solution.status == "feasible":
        lines.append("note: mix is feasible but optimality is unproven")
    if matrix.exclusions:
        lines.append(
            f"{len(matrix.exclusions)} infeasible (bin, platform) "
            f"pairings excluded (see --json for reasons)"
        )
    return "\n".join(lines)
