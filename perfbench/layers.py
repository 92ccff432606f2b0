"""The per-layer metric catalogue and where each layer is wrapped.

Every traced run prints every metric below; a layer the workload never
calls reads 0.  Each metric's ``moves`` entry is the end-to-end metric
(and workload) it should move -- the map later performance claims are
checked against.  Spans wrap the attribute the program's callers
resolve (e.g. ``repro.microbench.suite.fit_machine``, because
``suite`` imports the name), so the program itself is unchanged.
"""

from __future__ import annotations

import importlib
from typing import Any

from tracer import Tracer

_FIT = "heavy_ms on reproduce; setup_s on procure (theta-hat unchanged)"
_REPRO = "heavy_ms, light_ms, rate_per_s on reproduce"
_SERVE = "light_ms, heavy_ms, rate_per_s, good_share on serve_open_loop"
_PROCURE = "heavy_ms, light_ms, rate_per_s, good_share on procure"
_LINT = "heavy_ms (cold), light_ms (warm), rate_per_s on lint_project"

#: name -> (unit, end-to-end metric it should move)
PER_LAYER: dict[str, tuple[str, str]] = {
    "measurement.rails.split.calls": ("count", _REPRO + "; setup_s on procure"),
    "measurement.rails.split.self_s": ("s", _REPRO + "; setup_s on procure"),
    "measurement.powermon.measure.calls": ("count", _REPRO + "; setup_s on procure"),
    "measurement.powermon.measure.self_s": ("s", _REPRO + "; setup_s on procure"),
    "measurement.energy.measure.calls": ("count", _REPRO + "; setup_s on procure"),
    "measurement.energy.measure.self_s": ("s", _REPRO + "; setup_s on procure"),
    "core.fitting.fit_machine.calls": ("count", _FIT),
    "core.fitting.fit_machine.self_s": ("s", _FIT),
    "core.fitting.least_squares.calls": ("count", _FIT),
    "core.fitting.least_squares.nfev": ("count", _FIT),
    "core.fitting.least_squares.njev": ("count", _FIT),
    "core.fitting.least_squares.self_s": ("s", _FIT),
    "core.fitting.theta_err_median": ("ratio", "unchanged by any speed-up (fidelity)"),
    "machine.engine.run.calls": ("count", _REPRO),
    "machine.engine.run.self_s": ("s", _REPRO),
    "machine.governor.run_governor.calls": ("count", _REPRO),
    "machine.governor.run_governor.self_s": ("s", _REPRO),
    "machine.engine.run_batch.calls": ("count", _SERVE),
    "machine.engine.run_batch.self_s": ("s", _SERVE),
    "machine.governor.run_governor_batch.calls": ("count", _SERVE),
    "machine.governor.run_governor_batch.self_s": ("s", _SERVE),
    "microbench.runner.execute.calls": ("count", _REPRO),
    "microbench.runner.execute.self_s": ("s", _REPRO),
    "microbench.runner.calibrate.calls": ("count", _REPRO),
    "microbench.runner.calibrate.self_s": ("s", _REPRO),
    "microbench.cachebench.cache_sweep.self_s": ("s", _REPRO),
    "microbench.pointer_chase.chase_sweep.self_s": ("s", _REPRO),
    "experiments.run.calls": ("count", _REPRO),
    "experiments.run.self_s": ("s", _REPRO),
    "experiments.fitted_platform_config.calls": ("count", _PROCURE),
    "experiments.fitted_platform_config.self_s": ("s", _PROCURE),
    "serve.protocol.parse_predict_body.calls": ("count", _SERVE),
    "serve.protocol.parse_predict_body.self_s": ("s", _SERVE),
    "serve.protocol.build_kernel.self_s": ("s", _SERVE),
    "serve.protocol.encode_response.self_s": ("s", _SERVE),
    "serve.http.self_s": ("s", _SERVE),
    "serve.batcher.batches": ("count", _SERVE),
    "serve.batcher.mean_width": ("count", _SERVE),
    "serve.batcher.queue_wait_s": ("s", "light_ms on serve_open_loop (linger)"),
    "serve.theta.memo_hits": ("count", _SERVE),
    "serve.theta.engines": ("count", "server memory growth on serve_open_loop"),
    "serve.rss_growth_mb": ("MB", "peak_rss_mb on serve_open_loop"),
    "store.get.calls": ("count", _PROCURE),
    "store.get.hits": ("count", _PROCURE),
    "store.get.misses": ("count", _PROCURE),
    "store.get.self_s": ("s", _PROCURE),
    "store.put.calls": ("count", "setup_s on procure"),
    "store.put.bytes": ("B", "setup_s on procure"),
    "store.put.self_s": ("s", "setup_s on procure"),
    "fleet.evaluate_fleet.calls": ("count", _PROCURE),
    "fleet.evaluate_fleet.self_s": ("s", _PROCURE),
    "fleet.from_matrix.self_s": ("s", _PROCURE),
    "fleet.solve.calls": ("count", _PROCURE),
    "fleet.solve.self_s": ("s", _PROCURE),
    "fleet.solve.states_explored": ("count", _PROCURE),
    "fleet.solve.gave_up": ("count", "good_share on procure"),
    "fleet.solve_exact.self_s": ("s", _PROCURE),
    "fleet.simplex.solve_lp.calls": ("count", _PROCURE),
    "fleet.simplex.solve_lp.self_s": ("s", _PROCURE),
    "lint.project.analyze_file_payload.calls": ("count", _LINT),
    "lint.project.analyze_file_payload.self_s": ("s", _LINT),
    "lint.project.cache.hits": ("count", _LINT),
    "lint.project.cache.misses": ("count", _LINT),
    "lint.project.cache.load.self_s": ("s", _LINT),
    "lint.project.cache.store.self_s": ("s", _LINT),
    "lint.project.graph.self_s": ("s", _LINT),
    "lint.project.analyze.self_s": ("s", _LINT),
    "lint.project.run_project_rules.self_s": ("s", _LINT),
    "import.repro_cli_s": ("s", "setup_s on every workload"),
    "import.scipy_optimize_s": ("s", "setup_s on every workload"),
    "import.numpy_s": ("s", "setup_s on every workload"),
    "other.self_s": ("s", "traced wall time no wrapped layer covers"),
    "trace.wall_s": ("s", "wall time of the traced pass"),
    "trace.overhead_s": ("s", "traced minus untraced time of the same work"),
    "trace.largest_two_are_split_and_lsq": (
        "bool",
        "1 when rails.split and least_squares have the two largest self times",
    ),
}


def _count_lsq(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.add("core.fitting.least_squares.nfev", result.nfev)
    tracer.add("core.fitting.least_squares.njev", result.njev or 0)


def _count_get(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.add("store.get.hits" if result is not None else "store.get.misses")


def _count_put(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.add("store.put.bytes", result.stat().st_size)


def _count_solve(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.add("fleet.solve.states_explored", result.states_explored)
    tracer.add("fleet.solve.gave_up", result.status == "unknown")


def _count_cache_load(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.add("lint.project.cache.hits" if result is not None else "lint.project.cache.misses")


#: group -> [(module, attribute path, span name, result counter)]
WRAPS: dict[str, list[tuple[str, str, str, Any]]] = {
    "campaign": [
        ("repro.measurement.rails", "RailTopology.split", "measurement.rails.split", None),
        ("repro.measurement.powermon", "PowerMon.measure", "measurement.powermon.measure", None),
        ("repro.measurement.energy", "MeasurementRig.measure", "measurement.energy.measure", None),
        ("repro.microbench.suite", "fit_machine", "core.fitting.fit_machine", None),
        ("repro.stats.regression", "least_squares", "core.fitting.least_squares", _count_lsq),
        ("repro.machine.engine", "Engine.run", "machine.engine.run", None),
        ("repro.machine.engine", "run_governor", "machine.governor.run_governor", None),
        ("repro.machine.engine", "Engine.run_batch", "machine.engine.run_batch", None),
        ("repro.machine.engine", "run_governor_batch", "machine.governor.run_governor_batch", None),
        ("repro.microbench.runner", "BenchmarkRunner.execute", "microbench.runner.execute", None),
        ("repro.microbench.runner", "BenchmarkRunner.calibrate", "microbench.runner.calibrate", None),
        ("repro.microbench.suite", "cache_sweep", "microbench.cachebench.cache_sweep", None),
        ("repro.microbench.suite", "chase_sweep", "microbench.pointer_chase.chase_sweep", None),
    ],
    "experiments": [
        ("repro.experiments.registry", "run_experiment", "experiments.run", None),
    ],
    "serve": [
        ("repro.serve.server", "parse_predict_body", "serve.protocol.parse_predict_body", None),
        ("repro.serve.server", "build_kernel", "serve.protocol.build_kernel", None),
        ("repro.serve.server", "encode_response", "serve.protocol.encode_response", None),
        ("repro.serve.server", "_encode_http", "serve.http", None),
        ("repro.machine.engine", "Engine.run", "machine.engine.run", None),
        ("repro.machine.engine", "Engine.run_batch", "machine.engine.run_batch", None),
        ("repro.machine.engine", "run_governor", "machine.governor.run_governor", None),
        ("repro.machine.engine", "run_governor_batch", "machine.governor.run_governor_batch", None),
    ],
    "procure": [
        ("repro.experiments.common", "fitted_platform_config", "experiments.fitted_platform_config", None),
        ("repro.store.store", "CampaignStore.get", "store.get", _count_get),
        ("repro.store.store", "CampaignStore.put", "store.put", _count_put),
        ("repro.fleet.evaluate", "evaluate_fleet", "fleet.evaluate_fleet", None),
        ("repro.fleet.solver", "FleetInstance.from_matrix", "fleet.from_matrix", None),
        ("repro.fleet.solver", "solve", "fleet.solve", _count_solve),
        ("repro.fleet.solver", "solve_exact", "fleet.solve_exact", None),
        ("repro.fleet.solver", "solve_lp", "fleet.simplex.solve_lp", None),
    ],
    "lint": [
        ("repro.lint.project.engine", "SummaryCache.load", "lint.project.cache.load", _count_cache_load),
        ("repro.lint.project.engine", "SummaryCache.store", "lint.project.cache.store", None),
        ("repro.lint.project.engine", "ProjectGraph.__init__", "lint.project.graph", None),
        ("repro.lint.project.rules", "analyze", "lint.project.analyze", None),
        ("repro.lint.project.engine", "run_project_rules", "lint.project.run_project_rules", None),
    ],
}


def install(tracer: Tracer, *groups: str) -> None:
    """Wrap every attribute of ``groups`` (undo with ``tracer.restore()``)."""
    for group in groups:
        for module_name, path, span, counter in WRAPS[group]:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            tracer.wrap(owner, attr, span, counter)


def layer_report(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric (0 where the layer never ran)."""
    measured = tracer.layer_metrics(wall_s)
    out = {name: 0.0 for name in PER_LAYER}
    for name, value in measured.items():
        if name in out:
            out[name] = float(value)
    return out
