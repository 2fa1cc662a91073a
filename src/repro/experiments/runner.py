"""Experiment execution: one dispatch rule for sweep cases.

The runner turns a list of :class:`~repro.analysis.sweeps.SweepCase` objects
into a :class:`~repro.analysis.sweeps.SweepResult`.  It groups the cases by
:func:`group_key`: cases whose networks share a *topology* (identical
paths, edges and commodities; latency coefficients may differ) under the
same information model and ``method`` (fluid or agents).  A group of two or
more runs as one batched call: one network object runs directly, different
same-topology networks stack into a
:class:`~repro.wardrop.family.NetworkFamily`, and per-row policies, update
periods, horizons, scenarios, stop conditions and initial flows ride along.
A group of one runs on its own, as a one-row batch on the same engine.

Rows come back in case order, and each case's trajectory equals its
one-case run, ``run_cases([case], ...)``, bit for bit -- with one
documented exception: *open-mode* column-generation cases fused onto the
batched CG driver grow a shared (union) restricted path set, so a fused row
can route over columns another row discovered.  Closed-mode CG fusions stay
bit-identical per row; run ``run_cases`` once per case when per-row
discovery sets must stay independent.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sweeps import RowBuilder, SweepCase, SweepResult
from ..telemetry.runtime import get_telemetry
from ..batch.agents import BatchAgentConfig, BatchAgentSimulator
from ..batch.engine import BatchConfig, BatchSimulator, Policies
from ..core.agents import DEFAULT_NUM_AGENTS
from ..core.trajectory import Trajectory
from ..wardrop.family import NetworkFamily, topology_signature
from ..wardrop.flow import FlowVector
from .plan import ExperimentPlan

GroupKey = Tuple[Tuple, bool, str, Optional[int]]

Rows = List[Dict[str, object]]


def group_key(case: SweepCase) -> GroupKey:
    """Return the batch-compatibility key of a case.

    Cases batch together when their networks share a topology
    (:func:`~repro.wardrop.family.topology_signature`: identical paths, edges
    and commodities — latency coefficients may differ, in which case the
    group runs as a :class:`~repro.wardrop.family.NetworkFamily` batch), the
    same information model (stale vs fresh) and the same ``method`` (fluid
    or agents);
    policy, update period, horizon, steps-per-phase, initial flow and
    *scenario* may vary per row (the batched engine stacks per-row
    nonstationary environments).

    Column-generation cases additionally share the *same network object*
    (the final key element): the rows grow one shared restricted path set.
    Their policies, scenarios, update periods, horizons and steps-per-phase
    vary per row like any fluid case's.
    """
    network_id = id(case.network) if case.column_generation else None
    return (topology_signature(case.network), case.stale, case.method, network_id)


def _case_num_agents(case: SweepCase) -> int:
    """Return a case's population size, defaulting only a missing value."""
    return case.num_agents if case.num_agents is not None else DEFAULT_NUM_AGENTS


def _case_event_attrs(case: SweepCase) -> Dict[str, object]:
    """Return the JSON-friendly attributes of one case's progress events."""
    attrs: Dict[str, object] = {
        "method": case.method,
        "stale": case.stale,
        "update_period": case.update_period,
        "horizon": case.horizon,
    }
    for key, value in case.parameters.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            attrs.setdefault(key, value)
    return attrs


def _serial_case_rows(case: SweepCase, row_builder: RowBuilder) -> Rows:
    """Run one case on its own (a one-case group), emitting progress events."""
    tele = get_telemetry()
    attrs = _case_event_attrs(case) if tele.enabled else {}
    tele.event("case_started", **attrs)
    begin = time.perf_counter() if tele.enabled else 0.0
    rows = _case_rows(case, _run_batch_group([case])[0], row_builder)
    tele.event("case_finished", seconds=time.perf_counter() - begin, **attrs)
    tele.counter("runner.cases_completed").add()
    return rows


def _case_rows(case: SweepCase, trajectory: Trajectory, row_builder: RowBuilder) -> Rows:
    """Build one case's result rows, merged over its echoed parameters."""
    built = row_builder(trajectory)
    rows = built if isinstance(built, (list, tuple)) else [built]
    merged_rows: Rows = []
    for row in rows:
        merged: Dict[str, object] = dict(case.parameters)
        merged.update(row)
        merged_rows.append(merged)
    return merged_rows


def _group_target_and_policies(cases: Sequence[SweepCase]):
    """Return the shared network (or family) and policies of one group."""
    networks = [case.network for case in cases]
    if all(network is networks[0] for network in networks):
        target = networks[0]
    else:
        target = NetworkFamily(networks)
    policies: Policies = [case.policy for case in cases]
    if all(policy is policies[0] for policy in policies):
        policies = policies[0]
    return target, policies


def _group_stop_when(cases: Sequence[SweepCase]):
    """Build the combined batch stopping condition of one fused group.

    Each case's ``stop_when`` predicate is evaluated on its own single-row
    slice with row index 0, so a case stops in the same phase whichever
    group (a one-case group when alone) runs it.
    """
    conditions = [case.stop_when for case in cases]
    if all(condition is None for condition in conditions):
        return None
    zero = np.zeros(1, dtype=int)

    def combined(times: np.ndarray, flows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(rows), dtype=bool)
        for i, row in enumerate(rows):
            condition = conditions[row]
            if condition is not None:
                mask[i] = bool(np.asarray(condition(times[i : i + 1], flows[i : i + 1], zero))[0])
        return mask

    return combined


def _run_batch_cg_group(cases: Sequence[SweepCase]) -> List[Trajectory]:
    """Run one fused column-generation group on the batched CG driver.

    The group key guarantees the cases share one network object, information
    model and method; policies, scenarios, update periods, horizons and
    steps-per-phase ride along per row.  Closed-mode rows equal their
    one-case runs bit for bit.  **Open-mode rows do not**: fused rows grow
    one shared (union) restricted path set, so a row can discover columns
    another row's snapshot surfaced — this is the one documented departure
    from "results never depend on the grouping" (run each case on its own
    to keep per-row discovery sets independent).
    """
    from ..largescale.batch_columns import simulate_with_column_generation_batch
    from ..largescale.columns import ActivePathSet

    first = cases[0]
    result = simulate_with_column_generation_batch(
        ActivePathSet.from_network(first.network),
        [case.policy for case in cases],
        update_period=[case.update_period for case in cases],
        horizon=[case.horizon for case in cases],
        scenarios=[case.scenario for case in cases],
        stale=first.stale,
        steps_per_phase=[case.steps_per_phase for case in cases],
    )
    return [result.trajectory(row) for row in range(len(cases))]


def _run_batch_group(cases: Sequence[SweepCase]) -> List[Trajectory]:
    """Run one compatible group as a single batched integration.

    Cases sharing one network object run on it directly; same-topology
    cases with different networks are stacked into a
    :class:`NetworkFamily` so heterogeneous latency coefficients integrate
    in the same pass.  Groups with ``method="agents"`` run on the batched
    finite-population engine instead of the fluid integrator.  A one-case
    group is how a case runs on its own.
    """
    first = cases[0]
    if first.column_generation:
        return _run_batch_cg_group(cases)
    target, policies = _group_target_and_policies(cases)
    # Passed as FlowVectors (not a raw array) so the engine validates each
    # row's flow against its own network or family member.
    initial_flows = [
        case.initial_flow if case.initial_flow is not None else FlowVector.uniform(case.network)
        for case in cases
    ]
    scenarios = [case.scenario for case in cases]
    if all(scenario is None for scenario in scenarios):
        scenarios = None
    if first.method == "agents":
        agent_config = BatchAgentConfig(
            num_agents=np.array(
                [_case_num_agents(case) for case in cases], dtype=np.int64
            ),
            update_periods=np.array([case.update_period for case in cases], dtype=float),
            horizons=np.array([case.horizon for case in cases], dtype=float),
            seeds=np.array([case.seed for case in cases], dtype=np.int64),
            stale=first.stale,
        )
        agent_result = BatchAgentSimulator(
            target, policies, agent_config, scenarios=scenarios
        ).run(initial_flows, stop_when=_group_stop_when(cases))
        return [agent_result.trajectory(row) for row in range(len(cases))]
    config = BatchConfig(
        update_periods=np.array([case.update_period for case in cases], dtype=float),
        horizons=np.array([case.horizon for case in cases], dtype=float),
        steps_per_phase=np.array([case.steps_per_phase for case in cases], dtype=int),
        stale=first.stale,
    )
    result = BatchSimulator(target, policies, config, scenarios=scenarios).run(
        initial_flows, stop_when=_group_stop_when(cases)
    )
    return [result.trajectory(row) for row in range(len(cases))]


def _dispatch_rows(cases: List[SweepCase], row_builder: RowBuilder) -> List[Rows]:
    """Return one list of result rows per case, in case order.

    Every group of two or more cases runs as one batched call; the cases
    left alone in their group then run one at a time, in case order.
    """
    tele = get_telemetry()
    groups: Dict[GroupKey, List[int]] = {}
    for index, case in enumerate(cases):
        groups.setdefault(group_key(case), []).append(index)

    rows_per_case: List[Optional[Rows]] = [None] * len(cases)
    singles: List[int] = []
    for key, indices in groups.items():
        if len(indices) == 1:
            singles.extend(indices)
            continue
        tele.event(
            "batch_fused",
            cases=len(indices),
            method=key[2],
            stale=key[1],
        )
        tele.counter("runner.batch_groups").add()
        tele.histogram("runner.batch_group_size").observe(len(indices))
        for index, trajectory in zip(indices, _run_batch_group([cases[i] for i in indices])):
            rows_per_case[index] = _case_rows(cases[index], trajectory, row_builder)
            tele.event("case_finished", **_case_event_attrs(cases[index]))
            tele.counter("runner.cases_completed").add()
    for index in singles:
        rows_per_case[index] = _serial_case_rows(cases[index], row_builder)
    return rows_per_case  # type: ignore[return-value]


def run_cases(
    cases: List[SweepCase],
    row_builder: RowBuilder,
    engine: str = "auto",
) -> SweepResult:
    """Run every case and collect ``parameters | row_builder(trajectory)`` rows.

    Cases are grouped by :func:`group_key`: a group of two or more runs as
    one batched call, a group of one on its own.  ``row_builder(trajectory)``
    may return a single mapping or a list of mappings (e.g. one row per
    evaluation target); every returned row is merged over the case's echoed
    ``parameters``.  ``engine`` only accepts ``"auto"``, the one dispatch
    rule, and is echoed on the ``sweep`` span.
    """
    if engine != "auto":
        raise ValueError(f"engine must be 'auto' (the only dispatch rule), got {engine!r}")
    cases = list(cases)
    tele = get_telemetry()
    with tele.span("sweep", cases=len(cases), engine=engine) as sweep_span:
        if tele.enabled and cases:
            # The sweep's ledger fingerprint keys on which instances it ran.
            names = sorted(
                {
                    str(case.network.graph.graph.get("name") or "-")
                    for case in cases
                }
            )
            sweep_span.annotate(instance=",".join(names))
        result = SweepResult()
        for rows in _dispatch_rows(cases, row_builder):
            for row in rows:
                result.append(row)
    return result


def run_plan(
    plan: ExperimentPlan,
    row_builder: RowBuilder,
    csv_path=None,
    jsonl_path=None,
    include_seed: bool = False,
) -> SweepResult:
    """Run a whole experiment plan and optionally persist the result rows.

    ``include_seed`` adds each case's deterministic seed as a ``seed`` column
    (rows produced by a multi-row builder share their case's seed).
    """
    if include_seed:
        cases = [
            dataclasses.replace(case, parameters={**case.parameters, "seed": seed})
            for case, seed in zip(plan.cases, plan.seeds)
        ]
    else:
        cases = plan.cases
    result = run_cases(cases, row_builder)
    if csv_path is not None:
        result.to_csv(csv_path)
    if jsonl_path is not None:
        result.to_jsonl(jsonl_path)
    return result
