"""Which public calls of ``repro`` belong to which layer, and the per-layer metrics.

:func:`install` wraps each layer's public entry points with a
:class:`~tracer.LayerTracer`; :func:`per_layer_metrics` turns the tracer's
accumulated state into the named per-layer metrics of ``BENCHMARK.json``.
``README.md`` lists which end-to-end metric each one should move.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from tracer import LayerTracer

SOLVER_METHODS = ("fw", "cfw", "bfw")

# (metric name, unit); the order is the order of the report.
PER_LAYER: List[Tuple[str, str]] = [
    ("wardrop.latency_s", "s"),
    ("wardrop.latency_calls", "count"),
    ("wardrop.project_s", "s"),
    ("wardrop.project_calls", "count"),
    ("core.sampling_s", "s"),
    ("core.sampling_calls", "count"),
    ("core.migration_s", "s"),
    ("core.migration_calls", "count"),
    ("core.step_s", "s"),
    ("core.step_self_s", "s"),
    ("core.steps", "count"),
    ("core.rate_block_fill", "ratio"),
    ("core.rate_table_mb", "MB"),
    ("batch.engine_self_s", "s"),
    ("batch.board_post_s", "s"),
    ("batch.board_posts", "count"),
    ("batch.agents_s", "s"),
    ("batch.agents_self_s", "s"),
    ("batch.row_phases", "count"),
    ("batch.recorded_mb", "MB"),
    ("largescale.sp_query_s", "s"),
    ("largescale.sp_queries", "count"),
    ("largescale.aon_s", "s"),
    ("largescale.aon_calls", "count"),
    ("largescale.cost_eval_s", "s"),
    ("largescale.cost_evals", "count"),
    ("largescale.incidence_s", "s"),
    ("largescale.incidence_calls", "count"),
    ("largescale.cg_self_s", "s"),
    ("largescale.columns_added", "count"),
    ("largescale.columns_per_query", "ratio"),
    ("solvers.line_search_s", "s"),
    ("solvers.line_search_calls", "count"),
    *((f"solvers.solve_s.{method}", "s") for method in SOLVER_METHODS),
    *((f"solvers.iterations.{method}", "count") for method in SOLVER_METHODS),
    ("scenarios.family_at_s", "s"),
    ("scenarios.family_at_calls", "count"),
    ("experiments.dispatch_self_s", "s"),
    ("experiments.batch_groups", "count"),
    ("experiments.serial_cases", "count"),
    ("analysis.row_build_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
]

# Tracer keys whose self times make up one row of the layer table.
TABLE_LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("wardrop.latency", ("wardrop.latency",)),
    ("wardrop.project", ("wardrop.project",)),
    ("core.sampling", ("core.sampling",)),
    ("core.migration", ("core.migration",)),
    ("core.step", ("core.step",)),
    ("batch.engine", ("batch.engine",)),
    ("batch.board_post", ("batch.board_post",)),
    ("batch.agents", ("batch.agents",)),
    ("largescale.sp_query", ("largescale.sp_query",)),
    ("largescale.aon", ("largescale.aon",)),
    ("largescale.cost_eval", ("largescale.cost_eval",)),
    ("largescale.incidence", ("largescale.incidence",)),
    ("largescale.cg", ("largescale.cg",)),
    ("solvers.line_search", ("solvers.line_search",)),
    ("solvers.solve", tuple(f"solvers.solve.{m}" for m in SOLVER_METHODS)),
    ("scenarios.family_at", ("scenarios.family_at",)),
    (
        "experiments.dispatch",
        ("experiments.run_cases", "experiments.batch_group", "experiments.serial_case"),
    ),
    ("analysis.row_build", ("analysis.row_build",)),
]


# Computed sizes describe one job; the other computed values add up over jobs.
SIZES = ("core.rate_table_mb", "core.rate_block_fill", "batch.recorded_mb")


def merge_values(total: Dict[str, float], job: Dict[str, float]) -> None:
    """Fold one traced job's computed values into the run's totals."""
    for key, value in job.items():
        total[key] = value if key in SIZES else total.get(key, 0.0) + value


def _module(name: str):
    return importlib.import_module(name)


def _rate_tables(tracer: LayerTracer, network, batch: int) -> None:
    """Record the ``(B, P, P)`` rate table of the largest batched run and its
    commodity block fill ``sum_c |P_c|^2 / P^2``."""
    paths = network.num_paths
    table_mb = batch * paths * paths * 8 / 1e6
    if table_mb >= tracer.values.get("core.rate_table_mb", 0.0):
        sizes = np.array(
            [len(network.paths.commodity_paths(c)) for c in range(network.num_commodities)],
            dtype=float,
        )
        tracer.values["core.rate_table_mb"] = table_mb
        tracer.values["core.rate_block_fill"] = float((sizes**2).sum() / paths**2)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points (undo with ``tracer.uninstall()``)."""
    network_mod = _module("repro.wardrop.network")
    family_mod = _module("repro.wardrop.family")
    flow_mod = _module("repro.wardrop.flow")
    sampling_mod = _module("repro.core.sampling")
    migration_mod = _module("repro.core.migration")
    engine_mod = _module("repro.batch.engine")
    board_mod = _module("repro.batch.board")
    agents_mod = _module("repro.batch.agents")
    shortest_mod = _module("repro.largescale.shortest")
    incidence_mod = _module("repro.largescale.incidence")
    scenario_mod = _module("repro.scenarios.scenario")
    edge_fw_mod = _module("repro.solvers.edge_frank_wolfe")
    runner_mod = _module("repro.experiments.runner")

    # wardrop
    tracer.patch_methods(
        network_mod.WardropNetwork,
        ("edge_latencies", "edge_latencies_batch", "path_latencies", "path_latencies_batch"),
        "wardrop.latency",
    )
    tracer.patch_methods(
        family_mod.NetworkFamily,
        ("edge_latencies_batch", "path_latencies_batch"),
        "wardrop.latency",
    )
    tracer.patch_methods(flow_mod.FlowVector, ("project_batch", "projected"), "wardrop.project")

    # core
    tracer.patch_methods(
        sampling_mod.SamplingRule, ("probabilities", "probabilities_batch"), "core.sampling"
    )
    tracer.patch_methods(migration_mod.MigrationRule, ("matrix", "matrix_batch"), "core.migration")
    dynamics_mod = _module("repro.core.dynamics")
    original_stepper_for = dynamics_mod.batch_stepper_for

    def traced_stepper_for(method):
        return tracer.timed(lambda *a, **k: "core.step", original_stepper_for(method))

    for module in (dynamics_mod, engine_mod, _module("repro.largescale.batch_columns")):
        if getattr(module, "batch_stepper_for", None) is original_stepper_for:
            tracer.replace(module, "batch_stepper_for", traced_stepper_for)

    # batch
    def fluid_result(result, simulator, *args, **kwargs):
        tracer.add_value("batch.row_phases", sum(result.num_phases(r) for r in range(result.batch_size)))
        tracer.max_value("batch.recorded_mb", (result.flows.nbytes + result.times.nbytes) / 1e6)
        _rate_tables(tracer, simulator.network, result.batch_size)

    tracer.patch(engine_mod.BatchSimulator, "run", "batch.engine", fluid_result)
    tracer.patch(board_mod.BatchBulletinBoard, "post_rows", "batch.board_post")
    tracer.patch(agents_mod.BatchAgentSimulator, "run", "batch.agents", fluid_result)

    # largescale
    tracer.patch_methods(
        shortest_mod.ShortestPathOracle,
        ("shortest_commodity_paths", "commodity_costs"),
        "largescale.sp_query",
    )
    tracer.patch_methods(shortest_mod.ShortestPathOracle, ("all_or_nothing",), "largescale.aon")
    tracer.patch_methods(
        shortest_mod.ShortestPathOracle,
        ("latency_costs", "free_flow_costs"),
        "largescale.cost_eval",
    )
    tracer.patch_methods(
        incidence_mod.EdgeIncidence,
        ("edge_flows", "edge_flows_batch", "path_totals", "path_totals_batch"),
        "largescale.incidence",
    )

    def cg_result(result, *args, **kwargs):
        tracer.add_value("batch.row_phases", result.batch_size * len(result.phase_spans))
        tracer.max_value("batch.recorded_mb", (result.flows.nbytes + result.times.nbytes) / 1e6)
        tracer.add_value("largescale.columns_added", result.total_columns_added)
        _rate_tables(tracer, result.network, result.batch_size)

    tracer.patch_function(
        "repro.largescale.batch_columns",
        "simulate_with_column_generation_batch",
        "largescale.cg",
        cg_result,
    )

    # solvers
    tracer.patch_function(
        "repro.solvers.line_search", "bisection_root", "solvers.line_search", only_in=[edge_fw_mod]
    )

    def solve_key(*args, **kwargs):
        return "solvers.solve." + str(kwargs.get("method", args[5] if len(args) > 5 else "fw"))

    def solve_result(result, *args, **kwargs):
        tracer.add_value(f"solvers.iterations.{result.method}", result.iterations)

    tracer.patch_function(
        "repro.solvers.edge_frank_wolfe", "solve_edge_flow_equilibrium", solve_key, solve_result
    )

    # scenarios
    tracer.patch(scenario_mod.ScenarioEnsemble, "family_at", "scenarios.family_at")
    tracer.patch(scenario_mod.Scenario, "network_at", "scenarios.family_at")

    # experiments and analysis
    tracer.patch_function("repro.experiments.runner", "run_cases", "experiments.run_cases")
    tracer.patch(runner_mod, "_run_batch_group", "experiments.batch_group")
    tracer.patch(runner_mod, "_serial_case_rows", "experiments.serial_case")
    tracer.patch(_module("workloads"), "sweep_row", "analysis.row_build")


def per_layer_metrics(
    tracer_totals: Dict[str, Sequence[float]],
    values: Dict[str, float],
    jobs: int,
    traced_run_s: float,
    untraced_run_s: float,
    unattributed_s: float,
) -> Dict[str, Optional[float]]:
    """Per-job per-layer metrics; ``None`` marks a layer the workload never called.

    ``tracer_totals`` maps tracer keys to ``(calls, busy, self)`` summed over
    ``jobs`` traced jobs, and ``values`` the computed values folded by
    :func:`merge_values`.
    """

    def per_job(field: int, keys: Tuple[str, ...]) -> Optional[float]:
        found = [tracer_totals[k][field] for k in keys if k in tracer_totals]
        return sum(found) / jobs if found else None

    def calls(*keys: str) -> Optional[float]:
        return per_job(0, keys)

    def busy(*keys: str) -> Optional[float]:
        return per_job(1, keys)

    def self_time(*keys: str) -> Optional[float]:
        return per_job(2, keys)

    def summed(key: str) -> Optional[float]:
        return values[key] / jobs if key in values else None

    dispatch = ("experiments.run_cases", "experiments.batch_group", "experiments.serial_case")
    queries = calls("largescale.sp_query")
    added = summed("largescale.columns_added")
    metrics: Dict[str, Optional[float]] = {
        "wardrop.latency_s": busy("wardrop.latency"),
        "wardrop.latency_calls": calls("wardrop.latency"),
        "wardrop.project_s": busy("wardrop.project"),
        "wardrop.project_calls": calls("wardrop.project"),
        "core.sampling_s": busy("core.sampling"),
        "core.sampling_calls": calls("core.sampling"),
        "core.migration_s": busy("core.migration"),
        "core.migration_calls": calls("core.migration"),
        "core.step_s": busy("core.step"),
        "core.step_self_s": self_time("core.step"),
        "core.steps": calls("core.step"),
        "core.rate_block_fill": values.get("core.rate_block_fill"),
        "core.rate_table_mb": values.get("core.rate_table_mb"),
        "batch.engine_self_s": self_time("batch.engine"),
        "batch.board_post_s": busy("batch.board_post"),
        "batch.board_posts": calls("batch.board_post"),
        "batch.agents_s": busy("batch.agents"),
        "batch.agents_self_s": self_time("batch.agents"),
        "batch.row_phases": summed("batch.row_phases"),
        "batch.recorded_mb": values.get("batch.recorded_mb"),
        "largescale.sp_query_s": busy("largescale.sp_query"),
        "largescale.sp_queries": queries,
        "largescale.aon_s": busy("largescale.aon"),
        "largescale.aon_calls": calls("largescale.aon"),
        "largescale.cost_eval_s": busy("largescale.cost_eval"),
        "largescale.cost_evals": calls("largescale.cost_eval"),
        "largescale.incidence_s": busy("largescale.incidence"),
        "largescale.incidence_calls": calls("largescale.incidence"),
        "largescale.cg_self_s": self_time("largescale.cg"),
        "largescale.columns_added": added,
        "largescale.columns_per_query": (
            added / queries if added is not None and queries else None
        ),
        "solvers.line_search_s": busy("solvers.line_search"),
        "solvers.line_search_calls": calls("solvers.line_search"),
        "scenarios.family_at_s": busy("scenarios.family_at"),
        "scenarios.family_at_calls": calls("scenarios.family_at"),
        "experiments.dispatch_self_s": self_time(*dispatch),
        "experiments.batch_groups": calls("experiments.batch_group"),
        "experiments.serial_cases": calls("experiments.serial_case"),
        "analysis.row_build_s": busy("analysis.row_build"),
        "trace.overhead": traced_run_s / untraced_run_s - 1.0,
        "trace.unattributed_s": unattributed_s,
    }
    for method in SOLVER_METHODS:
        metrics[f"solvers.solve_s.{method}"] = busy(f"solvers.solve.{method}")
        metrics[f"solvers.iterations.{method}"] = summed(f"solvers.iterations.{method}")
    if calls("experiments.run_cases") is not None:
        # The runner ran: zero fused groups or serial cases is a measurement.
        for name, key in (
            ("experiments.batch_groups", "experiments.batch_group"),
            ("experiments.serial_cases", "experiments.serial_case"),
        ):
            metrics[name] = calls(key) or 0.0
    return {name: metrics[name] for name, _unit in PER_LAYER}


def layer_table(
    tracer_totals: Dict[str, Sequence[float]],
    jobs: int,
    run_s: float,
    unattributed_s: float,
) -> List[Dict[str, object]]:
    """Rows of the layer report: self seconds per job, share of the mean traced
    job ``run_s``, calls per job."""
    rows: List[Dict[str, object]] = []
    for layer, keys in TABLE_LAYERS:
        found = [tracer_totals[k] for k in keys if k in tracer_totals]
        if not found:
            rows.append({"layer": layer, "self_s": None, "share": None, "calls": None})
            continue
        self_s = sum(entry[2] for entry in found) / jobs
        rows.append(
            {
                "layer": layer,
                "self_s": self_s,
                "share": self_s / run_s,
                "calls": sum(entry[0] for entry in found) / jobs,
            }
        )
    rows.append(
        {"layer": "(unattributed)", "self_s": unattributed_s, "share": unattributed_s / run_s, "calls": None}
    )
    return rows
