"""Fleet mix solvers: HiGHS mixed-integer programming and an exact
enumeration oracle.

The procurement problem is the integer program

    minimize    sum_ij w_ij x_ij
    subject to  sum_i a_ij x_ij >= d_j      (cover each bin's demand)
                sum_ij p_ij x_ij <= P       (rack power budget)
                sum_ij c_i  x_ij <= C       (procurement cost budget)
                sum_j  x_ij <= m_i          (vendor supply per platform)
                x_ij in {0, 1, 2, ...}

where ``x_ij`` is the number of platform-``i`` nodes dedicated to bin
``j`` for the whole planning horizon ``H``; ``a_ij = H / t_ij`` is the
jobs one such node completes, ``p_ij`` the *capped* (governor-
consistent) node draw, and the objective weight is ``w_ij = H p_ij``
(energy-to-solution, since a dedicated node draws ``p_ij`` for the
whole horizon) or ``w_ij = c_i`` (procurement cost).  Dedicating
purchased nodes to one bin for the horizon is a deliberate
procurement-level simplification: it is a *conservative* bound -- a
real scheduler interleaving bins on shared nodes can only do better --
and it is what keeps the program linear.

Two solvers, intentionally independent implementations:

:func:`solve`
    The production path: one :func:`scipy.optimize.milp` (HiGHS
    branch and bound) solve with a zero relative gap, so a returned
    mix is proven optimal.  HiGHS's feasibility and integrality
    tolerances are looser than this module's ``_REL_TOL`` rule, so
    the rounded vector is re-checked against every constraint before
    it is reported.  :func:`solve_lp` solves the same rows without
    integrality for the reported LP lower bound.
:func:`solve_exact`
    Depth-first enumeration of per-bin *irreducible covers* (no node
    can be removed without breaking coverage -- some optimal solution
    always is one, since weights and draws are non-negative), with
    budget and objective-bound pruning.  No LP involved; this is the
    test oracle.

Both are deterministic: HiGHS returns the same mix for the same rows,
which are built in the instance's stored (sorted) order, and the DFS
walks that order and keeps the first of equal-objective solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .evaluate import EvaluationMatrix
from .offers import PlatformOffer
from .workload import WorkloadSpec

__all__ = [
    "FleetAllocation",
    "FleetInstance",
    "FleetSolution",
    "allocations",
    "solve",
    "solve_exact",
    "solve_lp",
]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class FleetInstance:
    """One procurement problem, flattened to aligned primitive tuples.

    The pair axis holds one entry per *feasible* (bin, platform)
    pairing, ordered by bin then platform id -- the order every solver
    walks, which is what makes tie-breaking deterministic.
    """

    bin_labels: tuple[str, ...]
    platform_ids: tuple[str, ...]
    demands: tuple[float, ...]  #: jobs required per bin.
    horizon: float  #: planning window, s.
    pair_bin: tuple[int, ...]  #: bin index of each pair.
    pair_platform: tuple[int, ...]  #: platform index of each pair.
    pair_rate: tuple[float, ...]  #: a_ij, jobs per node per horizon.
    pair_power: tuple[float, ...]  #: p_ij, capped node draw (W).
    unit_costs: tuple[float, ...]  #: c_i per platform.
    max_nodes: tuple[float, ...]  #: m_i per platform (inf = unlimited).
    power_budget: float = math.inf  #: P (W).
    cost_budget: float = math.inf  #: C.
    objective: str = "energy"  #: "energy" | "cost"

    def __post_init__(self) -> None:
        if self.objective not in ("energy", "cost"):
            raise ValueError(
                f"objective must be 'energy' or 'cost', "
                f"got {self.objective!r}"
            )
        n = len(self.pair_bin)
        if not (
            len(self.pair_platform)
            == len(self.pair_rate)
            == len(self.pair_power)
            == n
        ):
            raise ValueError("pair arrays must be aligned")
        if len(self.demands) != len(self.bin_labels):
            raise ValueError("one demand per bin required")
        if len(self.unit_costs) != len(self.platform_ids) or len(
            self.max_nodes
        ) != len(self.platform_ids):
            raise ValueError("one cost and supply cap per platform required")
        for budget in (self.power_budget, self.cost_budget):
            if math.isnan(budget) or budget <= 0:
                raise ValueError(
                    f"budgets must be positive (inf = none), got {budget!r}"
                )
        for rate in self.pair_rate:
            if not math.isfinite(rate) or rate <= 0:
                raise ValueError(f"pair rates must be finite positive, got {rate!r}")

    @classmethod
    def from_matrix(
        cls,
        matrix: EvaluationMatrix,
        workload: WorkloadSpec,
        offers: dict[str, PlatformOffer],
        *,
        power_budget: float = math.inf,
        cost_budget: float = math.inf,
        objective: str = "energy",
    ) -> "FleetInstance":
        missing = [p for p in matrix.platform_ids if p not in offers]
        if missing:
            raise ValueError(
                f"no offer (unit cost) for platform(s): {', '.join(missing)}"
            )
        if matrix.bin_labels != workload.labels:
            raise ValueError("matrix and workload bins disagree")
        bin_index = {lab: j for j, lab in enumerate(matrix.bin_labels)}
        plat_index = {pid: i for i, pid in enumerate(matrix.platform_ids)}
        # entries are already ordered bin-major, platform-id minor.
        pair_bin, pair_platform, pair_rate, pair_power = [], [], [], []
        for e in matrix.entries:
            pair_bin.append(bin_index[e.bin_label])
            pair_platform.append(plat_index[e.platform_id])
            pair_rate.append(e.jobs_per_node)
            pair_power.append(e.node_power)
        return cls(
            bin_labels=matrix.bin_labels,
            platform_ids=matrix.platform_ids,
            demands=tuple(b.jobs for b in workload.bins),
            horizon=matrix.horizon,
            pair_bin=tuple(pair_bin),
            pair_platform=tuple(pair_platform),
            pair_rate=tuple(pair_rate),
            pair_power=tuple(pair_power),
            unit_costs=tuple(
                offers[p].unit_cost for p in matrix.platform_ids
            ),
            max_nodes=tuple(
                float(offers[p].max_nodes) for p in matrix.platform_ids
            ),
            power_budget=power_budget,
            cost_budget=cost_budget,
            objective=objective,
        )

    def pair_weights(self) -> tuple[float, ...]:
        """The objective coefficient of one node on each pair."""
        if self.objective == "energy":
            return tuple(self.horizon * p for p in self.pair_power)
        return tuple(self.unit_costs[i] for i in self.pair_platform)

    def pair_costs(self) -> tuple[float, ...]:
        return tuple(self.unit_costs[i] for i in self.pair_platform)

    def bin_pairs(self) -> tuple[tuple[int, ...], ...]:
        """Pair indices grouped by bin, in pair order."""
        groups: list[list[int]] = [[] for _ in self.bin_labels]
        for k, j in enumerate(self.pair_bin):
            groups[j].append(k)
        return tuple(tuple(g) for g in groups)


@dataclass(frozen=True)
class FleetAllocation:
    """One line of a solution: nodes of one platform on one bin."""

    bin_label: str
    platform_id: str
    nodes: int
    jobs: float  #: jobs completed over the horizon (a_ij * nodes).
    power: float  #: W drawn by these nodes.
    energy: float  #: J over the horizon.
    cost: float


@dataclass(frozen=True)
class FleetSolution:
    """A solved (or diagnosed) procurement problem."""

    status: str  #: "optimal" | "feasible" | "infeasible" | "unknown"
    method: str  #: "exact" | "milp"
    objective: str
    nodes: tuple[int, ...]  #: per instance pair.
    objective_value: float
    energy: float  #: J over the horizon.
    power: float  #: W total rack draw.
    cost: float
    total_nodes: int
    lp_bound: float  #: LP relaxation lower bound (nan if not computed).
    states_explored: int

    @property
    def solved(self) -> bool:
        return self.status in ("optimal", "feasible")


def allocations(
    instance: FleetInstance, solution: FleetSolution
) -> tuple[FleetAllocation, ...]:
    """The solution's non-zero lines, in pair order."""
    out = []
    for k, x in enumerate(solution.nodes):
        if x <= 0:
            continue
        i = instance.pair_platform[k]
        power = instance.pair_power[k] * x
        out.append(
            FleetAllocation(
                bin_label=instance.bin_labels[instance.pair_bin[k]],
                platform_id=instance.platform_ids[i],
                nodes=x,
                jobs=instance.pair_rate[k] * x,
                power=power,
                energy=power * instance.horizon,
                cost=instance.unit_costs[i] * x,
            )
        )
    return tuple(out)


def _totals(
    instance: FleetInstance, nodes: tuple[int, ...] | list[int]
) -> tuple[float, float, float, int]:
    """(energy, power, cost, total_nodes) of a node vector."""
    power = sum(
        p * x for p, x in zip(instance.pair_power, nodes)
    )
    cost = sum(
        instance.unit_costs[instance.pair_platform[k]] * x
        for k, x in enumerate(nodes)
    )
    return power * instance.horizon, power, cost, int(sum(nodes))


def _solution(
    instance: FleetInstance,
    status: str,
    method: str,
    nodes: tuple[int, ...],
    *,
    lp_bound: float = math.nan,
    states: int = 0,
) -> FleetSolution:
    energy, power, cost, total = _totals(instance, nodes)
    weights = instance.pair_weights()
    objective_value = sum(w * x for w, x in zip(weights, nodes))
    if status == "infeasible" or status == "unknown":
        objective_value = math.inf
    return FleetSolution(
        status=status,
        method=method,
        objective=instance.objective,
        nodes=nodes,
        objective_value=objective_value,
        energy=energy,
        power=power,
        cost=cost,
        total_nodes=total,
        lp_bound=lp_bound,
        states_explored=states,
    )


def _ceil_div(demand: float, rate: float) -> int:
    """Nodes needed to cover ``demand`` at ``rate`` jobs/node."""
    return max(0, math.ceil(demand / rate - 1e-12))


class _ExactSearch:
    """DFS over per-bin irreducible covers with budget/bound pruning."""

    def __init__(self, instance: FleetInstance, state_limit: int) -> None:
        self.inst = instance
        self.weights = instance.pair_weights()
        self.groups = instance.bin_pairs()
        self.state_limit = state_limit
        self.states = 0
        self.truncated = False
        self.best_nodes: tuple[int, ...] | None = None
        self.best_obj = math.inf
        # Fractional per-bin lower bounds and their suffix sums: bin j
        # costs at least d_j * min_k (w_k / a_k) in any solution.
        n_bins = len(instance.bin_labels)
        self.bin_lb = [0.0] * n_bins
        for j, group in enumerate(self.groups):
            if group:
                self.bin_lb[j] = instance.demands[j] * min(
                    self.weights[k] / instance.pair_rate[k] for k in group
                )
        self.suffix_lb = [0.0] * (n_bins + 1)
        for j in range(n_bins - 1, -1, -1):
            self.suffix_lb[j] = self.suffix_lb[j + 1] + self.bin_lb[j]
        self.x = [0] * len(instance.pair_bin)
        self.supply = [0] * len(instance.platform_ids)

    def run(self) -> None:
        if any(not g for g in self.groups):
            return  # a bin nobody can serve: trivially infeasible
        self._bin(0, 0.0, 0.0, 0.0)

    def _tick(self) -> bool:
        self.states += 1
        if self.states >= self.state_limit:
            self.truncated = True
            return False
        return True

    def _bin(self, j: int, obj: float, power: float, cost: float) -> None:
        if j == len(self.groups):
            if obj < self.best_obj - 1e-12:
                self.best_obj = obj
                self.best_nodes = tuple(self.x)
            return
        demand = self.inst.demands[j]
        self._cover(j, 0, demand, obj, power, cost)

    def _cover(
        self,
        j: int,
        t: int,
        remaining: float,
        obj: float,
        power: float,
        cost: float,
    ) -> None:
        """Choose counts for bin ``j``'s pairs from position ``t`` on,
        with ``remaining`` demand still uncovered."""
        if self.truncated or not self._tick():
            return
        inst = self.inst
        group = self.groups[j]
        tol = _REL_TOL * max(1.0, inst.demands[j])
        if remaining <= tol:
            self._bin(j + 1, obj, power, cost)
            return
        if t == len(group):
            return  # ran out of platforms with demand uncovered
        # Bound: finishing this bin costs at least remaining * best
        # weight-per-job among the still-available pairs.
        rest = [
            self.weights[k] / inst.pair_rate[k] for k in group[t:]
        ]
        bound = obj + remaining * min(rest) + self.suffix_lb[j + 1]
        if bound >= self.best_obj - 1e-12:
            return
        k = group[t]
        i = inst.pair_platform[k]
        supply_left = inst.max_nodes[i] - self.supply[i]
        hi = min(
            _ceil_div(remaining, inst.pair_rate[k]),
            int(supply_left) if math.isfinite(supply_left) else 10**18,
        )
        w, p = self.weights[k], inst.pair_power[k]
        c = inst.unit_costs[i]
        if math.isfinite(inst.power_budget) and p > 0:
            p_room = inst.power_budget * (1 + _REL_TOL) - power
            hi = min(hi, int(p_room // p) if p_room >= p else 0)
        if math.isfinite(inst.cost_budget) and c > 0:
            c_room = inst.cost_budget * (1 + _REL_TOL) - cost
            hi = min(hi, int(c_room // c) if c_room >= c else 0)
        for count in range(0, hi + 1):
            self.x[k] = count
            self.supply[i] += count
            self._cover(
                j,
                t + 1,
                remaining - count * inst.pair_rate[k],
                obj + count * w,
                power + count * p,
                cost + count * c,
            )
            self.supply[i] -= count
            self.x[k] = 0
            if self.truncated:
                return


def solve_exact(
    instance: FleetInstance,
    *,
    state_limit: int = 2_000_000,
    recorder: TraceRecorder = NULL_RECORDER,
) -> FleetSolution:
    """Provably optimal mix by exhaustive irreducible-cover search.

    With the default ``state_limit`` this is the oracle for small
    instances; if the limit is hit the result degrades to the best
    mix found so far (status ``"feasible"``, or ``"unknown"`` when
    there is none).
    """
    with recorder.span(
        "fleet_solve",
        method="exact",
        bins=len(instance.bin_labels),
        platforms=len(instance.platform_ids),
        pairs=len(instance.pair_bin),
    ):
        search = _ExactSearch(instance, state_limit)
        search.run()
    zeros = tuple(0 for _ in instance.pair_bin)
    if search.best_nodes is None:
        status = "unknown" if search.truncated else "infeasible"
        return _solution(
            instance, status, "exact", zeros, states=search.states
        )
    status = "feasible" if search.truncated else "optimal"
    return _solution(
        instance,
        status,
        "exact",
        search.best_nodes,
        states=search.states,
    )




def _program(instance: FleetInstance):
    """The objective and constraint rows of the integer program, in
    the shape :func:`scipy.optimize.milp` takes."""
    from scipy.optimize import LinearConstraint

    n = len(instance.pair_bin)
    pairs = np.arange(n)
    demand = np.zeros((len(instance.bin_labels), n))
    demand[instance.pair_bin, pairs] = instance.pair_rate
    supply = np.zeros((len(instance.platform_ids), n))
    supply[instance.pair_platform, pairs] = 1.0
    rows = np.vstack(
        [demand, instance.pair_power, instance.pair_costs(), supply]
    )
    lower = np.concatenate(
        [instance.demands, np.full(2 + len(supply), -np.inf)]
    )
    upper = np.concatenate(
        [
            np.full(len(demand), np.inf),
            [instance.power_budget, instance.cost_budget],
            instance.max_nodes,
        ]
    )
    weights = np.array(instance.pair_weights())
    return weights, LinearConstraint(rows, lower, upper)


def solve_lp(instance: FleetInstance) -> float:
    """The LP relaxation's optimum: a lower bound on every integer mix
    (``inf`` when even the relaxation is infeasible, ``nan`` when
    HiGHS gives no answer)."""
    from scipy.optimize import milp

    weights, constraints = _program(instance)
    result = milp(weights, constraints=constraints, integrality=0)
    if result.status == 2:
        return math.inf
    return float(result.fun) if result.status == 0 else math.nan


def _verified(constraints, x: np.ndarray) -> tuple[int, ...] | None:
    """``x`` rounded to integers, or None when the rounded mix breaks
    a row under the ``_REL_TOL`` rule :class:`_ExactSearch` uses
    (HiGHS accepts 1e-7 absolute infeasibility and 1e-6 integrality
    slack, both looser)."""
    nodes = np.round(x)
    lhs = constraints.A @ nodes
    lower = constraints.lb - _REL_TOL * np.maximum(1.0, constraints.lb)
    upper = constraints.ub * (1 + _REL_TOL)
    if nodes.min() < 0 or np.any(lhs < lower) or np.any(lhs > upper):
        return None
    return tuple(int(v) for v in nodes)


def solve(
    instance: FleetInstance,
    *,
    recorder: TraceRecorder = NULL_RECORDER,
) -> FleetSolution:
    """Proven-optimal mix from one HiGHS branch-and-bound solve.

    Returns the LP lower bound alongside the mix.  Status is
    ``"optimal"``, ``"infeasible"``, or ``"unknown"`` when HiGHS stops
    without a proof or its mix fails the re-check; an ``"unknown"``
    result never carries a mix.
    """
    from scipy.optimize import milp

    with recorder.span(
        "fleet_solve",
        method="milp",
        bins=len(instance.bin_labels),
        platforms=len(instance.platform_ids),
        pairs=len(instance.pair_bin),
    ):
        zeros = tuple(0 for _ in instance.pair_bin)
        if any(not g for g in instance.bin_pairs()):
            return _solution(instance, "infeasible", "milp", zeros)
        lp_bound = solve_lp(instance)
        if lp_bound == math.inf:
            # The relaxation is a superset of the integer feasible set.
            return _solution(
                instance, "infeasible", "milp", zeros, lp_bound=lp_bound
            )
        weights, constraints = _program(instance)
        result = milp(
            weights,
            constraints=constraints,
            integrality=1,
            options={"mip_rel_gap": 0.0},
        )
        status, nodes = "unknown", None
        if result.status == 2:
            status = "infeasible"
        elif result.status == 0:
            nodes = _verified(constraints, result.x)
            status = "unknown" if nodes is None else "optimal"
        return _solution(
            instance,
            status,
            "milp",
            zeros if nodes is None else nodes,
            lp_bound=lp_bound,
            states=int(result.get("mip_node_count") or 0),
        )
