"""Column generation for B same-topology replicas with one shared oracle.

This is the only column-generation driver:
:func:`~repro.largescale.columns.simulate_with_column_generation` runs one
replica as its one-row case.  The restricted path set grows mid-run, so the
path-flow state is padded to a capacity and *grown in place*.  One shared
:class:`~repro.largescale.columns.ActivePathSet` (and therefore one shared
:class:`~repro.largescale.shortest.ShortestPathOracle`) serves all ``B``
rows; at a bulletin refresh every refreshing row queries the oracle against
its own posted snapshot (priced in its own scenario's effective network via
:class:`~repro.scenarios.scenario.ScenarioEnsemble`), and the restricted set
grows by the **union** of the per-row discoveries.  A new column enters with
zero flow on every row -- including the rows that did not discover it -- and
growth counts as a shared information event: the bulletin board re-posts
every row the moment the set grows, so no row integrates over columns its
snapshot has never priced.

Row semantics:

* **Closed mode** (``active.closed``): the set never grows, and every row
  equals its one-row run bit for bit; a closed-mode row is exactly the fluid
  dynamics of :func:`~repro.core.simulator.simulate` on the same path set
  (same field assembly, stepper arithmetic and boundary projection), which
  ``tests/largescale/test_batch_columns.py`` checks bit for bit.
* **Open mode**: rows share the union restricted set, which is a deliberate
  departure from one-row runs (a one-row run only ever sees its own
  discoveries).  Column generation is documented as a heuristic away from
  equilibrium, and sharing discoveries only ever *adds* zero-flow options.

Scenario closures evict per row: a row whose scenario closes an edge moves
the flow of its crossing columns onto its best open column, while other rows
keep routing over those columns.  At the end of the run every row receives
the oracle's relative-duality-gap certificate (the same one Frank--Wolfe
uses), so a batched run documents per row how far from Wardrop equilibrium
it settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..batch.board import BatchBulletinBoard
from ..core.dynamics import advance_phase, batch_stepper_for, integration_step_for
from ..core.policy import frozen_field, policy_tables
from ..core.trajectory import PhaseRecord, Trajectory
from ..telemetry.runtime import get_telemetry
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.paths import Path
from ..wardrop.validation import require_positive, require_positive_integer
from .columns import (
    ActivePathSet,
    PolicyOrBuilder,
    _evict_closed_columns,
    _resolve_policy,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..scenarios.scenario import Scenario

__all__ = [
    "BatchColumnGenerationResult",
    "simulate_with_column_generation_batch",
]


def _grow_buffer(
    buffer: np.ndarray, perm: np.ndarray, old_width: int, new_width: int
) -> np.ndarray:
    """Move the old columns of a padded buffer to their post-growth indices.

    While the capacity suffices the buffer grows *in place* (old columns are
    scattered through ``perm``, everything else zeroed); only when the new
    width exceeds the capacity is a doubled buffer allocated.
    """
    capacity = buffer.shape[-1]
    if new_width <= capacity:
        old = buffer[..., :old_width].copy()
        buffer[...] = 0.0
        buffer[..., perm] = old
        return buffer
    grown = np.zeros(buffer.shape[:-1] + (max(new_width, 2 * capacity),))
    grown[..., perm] = buffer[..., :old_width]
    return grown


@dataclass
class BatchColumnGenerationResult:
    """The outcome of one batched column-generation run.

    All per-sample arrays are expressed on the **final** restricted network
    (``flows`` has shape ``(B, S, P_final)``); earlier samples carry zero
    flow on later-discovered columns.  ``duality_gaps`` holds the per-row
    relative duality gap of the final flows in each row's final effective
    network -- the oracle certificate that the row settled (close) to a
    Wardrop equilibrium of the *full* network.
    """

    network: WardropNetwork
    active: ActivePathSet
    times: np.ndarray
    flows: np.ndarray
    phase_start_flows: np.ndarray
    phase_spans: List[Tuple[float, float]]
    update_period: float
    stale: bool
    policy_labels: List[str]
    duality_gaps: np.ndarray
    growth_events: List[Tuple[int, List[Path]]] = field(default_factory=list)
    path_counts: List[int] = field(default_factory=list)
    # Scenario closures: (phase_index, row, flow volume moved off closed columns).
    eviction_events: List[Tuple[int, int, float]] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return self.flows.shape[0]

    @property
    def total_columns_added(self) -> int:
        return sum(len(paths) for _, paths in self.growth_events)

    def flow_matrix(self, row: int) -> np.ndarray:
        """Return row ``row``'s sampled flows as a ``(S, P_final)`` array."""
        return self.flows[row]

    def final_flows(self) -> np.ndarray:
        """Return the ``(B, P_final)`` final states of all rows."""
        return self.flows[:, -1, :]

    def trajectory(self, row: int) -> Trajectory:
        """Materialise row ``row`` as a scalar :class:`Trajectory`."""
        trajectory = Trajectory(
            network=self.network,
            policy_name=self.policy_labels[row] + " +column-generation",
            update_period=self.update_period if self.stale else 0.0,
        )
        for index, time in enumerate(self.times):
            trajectory.record(
                float(time),
                FlowVector(self.network, self.flows[row, index], validate=False),
                max(index - 1, 0),
            )
        for phase, (start_time, end_time) in enumerate(self.phase_spans):
            trajectory.record_phase(
                PhaseRecord(
                    index=phase,
                    start_time=start_time,
                    end_time=end_time,
                    start_flow=FlowVector(
                        self.network, self.phase_start_flows[row, phase], validate=False
                    ),
                    end_flow=FlowVector(
                        self.network, self.flows[row, phase + 1], validate=False
                    ),
                )
            )
        return trajectory


def _normalise_initial_flows(
    network: WardropNetwork, batch: int, initial_flows
) -> np.ndarray:
    """Return the validated ``(B, P)`` start states (uniform by default)."""
    if initial_flows is None:
        return np.tile(FlowVector.uniform(network).values(), (batch, 1))
    if isinstance(initial_flows, FlowVector):
        if initial_flows.network is not network:
            raise ValueError("initial flow belongs to a different network")
        return np.tile(initial_flows.values(), (batch, 1))
    if isinstance(initial_flows, np.ndarray):
        flows = np.asarray(initial_flows, dtype=float)
        if flows.shape != (batch, network.num_paths):
            raise ValueError(
                f"initial flow array has shape {flows.shape}, "
                f"expected {(batch, network.num_paths)}"
            )
        return flows.copy()
    vectors = list(initial_flows)
    if len(vectors) != batch:
        raise ValueError(f"got {len(vectors)} initial flows for a batch of {batch}")
    for vector in vectors:
        if vector.network is not network:
            raise ValueError("initial flow belongs to a different network")
    return np.stack([vector.values() for vector in vectors])


class _PostedCostCache:
    """Full-graph posted cost vectors, whose off-path part is evaluated once
    per distinct effective environment instead of once per row per refresh.

    The on-path positions of a cost vector are the row's (vectorised) posted
    edge latencies; the off-path positions carry the environment's zero-flow
    latencies, which depend only on the effective member -- scenarios are
    piecewise constant, so a whole run touches a handful of distinct members.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self._off_path: Dict[Tuple[int, object], np.ndarray] = {}

    def base_costs(
        self,
        network: WardropNetwork,
        member: WardropNetwork,
        modulation,
        positions: np.ndarray,
    ) -> np.ndarray:
        key = (id(network), modulation)
        base = self._off_path.get(key)
        if base is None:
            base = self.oracle.free_flow_costs(member)
            base[positions] = 0.0
            self._off_path[key] = base
        return base


def simulate_with_column_generation_batch(
    active: ActivePathSet,
    policies: Union[PolicyOrBuilder, Sequence[PolicyOrBuilder]],
    update_period: float,
    horizon: float,
    batch: Optional[int] = None,
    scenarios: Optional[Sequence[Optional["Scenario"]]] = None,
    initial_flows=None,
    stale: bool = True,
    steps_per_phase: int = 50,
    method: str = "rk4",
    capacity: Optional[int] = None,
    stop_when: Optional[Callable[[float, np.ndarray], bool]] = None,
) -> BatchColumnGenerationResult:
    """Run ``B`` column-generation replicas as one padded ``(B, P)`` ensemble.

    The rows share topology, update period, horizon and integration settings
    (that is what makes them batchable); ``scenarios`` and ``policies`` may
    vary per row.  The batch size is taken from ``scenarios`` or a
    ``policies`` sequence, or passed explicitly as ``batch``.  ``capacity``
    pre-pads the path dimension (default twice the seed width) so early
    growth events scatter in place instead of reallocating.

    ``stop_when(time, flows)`` is an ensemble-level condition evaluated at
    every phase boundary on the projected ``(B, P_current)`` flows of the
    current restricted network (``active.network``); the run ends when it
    returns ``True``.

    See the module docstring for the union-growth semantics.
    """
    require_positive("update_period", update_period)
    require_positive("horizon", horizon)
    require_positive_integer("steps_per_phase", steps_per_phase)
    batch_stepper_for(method)

    if scenarios is not None:
        scenarios = list(scenarios)
    if isinstance(policies, (list, tuple)):
        policy_specs: List[PolicyOrBuilder] = list(policies)
    else:
        policy_specs = []
    sizes = {len(seq) for seq in (scenarios, policy_specs) if seq}
    if batch is not None:
        sizes.add(int(batch))
    if len(sizes) > 1:
        raise ValueError(f"inconsistent batch sizes: {sorted(sizes)}")
    if not sizes:
        raise ValueError(
            "pass `batch`, a scenarios list or a policies list to fix the batch size"
        )
    size = sizes.pop()
    if size <= 0:
        raise ValueError("batch size must be positive")
    if not policy_specs:
        policy_specs = [policies] * size
    if scenarios is not None and all(s is None for s in scenarios):
        scenarios = None

    network = active.network
    oracle = active.oracle
    width = network.num_paths
    pad = max(width, capacity if capacity is not None else 2 * width)
    stepper = batch_stepper_for(method)
    step = integration_step_for(update_period, steps_per_phase)
    num_phases = int(np.ceil(horizon / update_period))
    periods = np.full(size, update_period)

    def resolve_policies(net: WardropNetwork):
        """Return every row's policy and the ``policy_tables`` argument: the
        one shared policy (vectorised kernels) or the per-row list."""
        resolved = [_resolve_policy(spec, net) for spec in policy_specs]
        shared = all(p is resolved[0] for p in resolved)
        return resolved, resolved[0] if shared else resolved

    def build_environment(net: WardropNetwork):
        if scenarios is None:
            return None
        from ..scenarios.scenario import ScenarioEnsemble

        return ScenarioEnsemble(net, scenarios)

    resolved, policies_now = resolve_policies(network)
    ensemble = build_environment(network)
    board = BatchBulletinBoard(network, periods)
    positions = oracle.network_edge_positions(network)
    cost_cache = _PostedCostCache(oracle)

    state = np.zeros((size, pad))
    state[:, :width] = _normalise_initial_flows(network, size, initial_flows)
    recorded = np.zeros((num_phases + 1, size, pad))
    recorded[0] = state
    start_flows = np.zeros((num_phases, size, pad))
    times = np.zeros(num_phases + 1)
    phase_spans: List[Tuple[float, float]] = []
    growth_events: List[Tuple[int, List[Path]]] = []
    path_counts: List[int] = []
    eviction_events: List[Tuple[int, int, float]] = []
    posted_modulations: List[object] = [None] * size
    previously_closed: List[frozenset] = [frozenset()] * size

    tele = get_telemetry()
    added_counter = tele.counter("cg_batch.columns_added")
    invalidated_counter = tele.counter("cg_batch.columns_invalidated")
    refresh_counter = tele.counter("cg_batch.bulletin_refreshes")
    phases_counter = tele.counter("cg_batch.phases_integrated")

    def member_at(row: int, t: float) -> WardropNetwork:
        scenario = scenarios[row] if scenarios is not None else None
        return network if scenario is None else scenario.network_at(network, t)

    completed = 0
    gaps = np.empty(size)
    run_span = tele.span(
        "engine_run",
        engine="column-generation-batch",
        instance=network.graph.graph.get("name") or "-",
        stale=stale,
        method=method,
        batch=size,
        initial_paths=width,
    )
    try:
        for phase in range(num_phases):
            phase_start = phase * update_period
            phase_end = min((phase + 1) * update_period, horizon)
            row_times = np.full(size, phase_start)

            family = None
            if ensemble is not None:
                family = ensemble.family_at(row_times)
                board.set_networks(family)
            if scenarios is not None:
                modulations = [
                    s.modulation_at(phase_start) if s is not None else None
                    for s in scenarios
                ]
                closed_now = [
                    s.closed_edges(phase_start) if s is not None else frozenset()
                    for s in scenarios
                ]
            else:
                modulations = [None] * size
                closed_now = [frozenset()] * size

            if stale:
                # The per-row refresh rule: the board's own floor(t/T)
                # schedule (including its floating-point quirk, shared with
                # the fluid engine) plus modulation-change forcing.
                refresh = board.needs_update(row_times)
                refresh = refresh | np.array(
                    [modulations[b] != posted_modulations[b] for b in range(size)]
                )
            else:
                refresh = np.ones(size, dtype=bool)

            with tele.span("phase", index=phase, start=phase_start):
                if refresh.any():
                    with tele.span(
                        "column_generation_round", phase=phase, rows=int(refresh.sum())
                    ) as cg_span:
                        refresh_counter.add(int(refresh.sum()))
                        added: List[Path] = []
                        if not active.closed:
                            rows = np.flatnonzero(refresh)
                            edge_flows = network.edge_flows_batch(state[rows, :width])
                            if family is not None:
                                edge_latencies = family.edge_latencies_batch(edge_flows, rows)
                            else:
                                edge_latencies = network.edge_latencies_batch(edge_flows)
                            candidates: List[Path] = []
                            for i, row in enumerate(rows):
                                base = cost_cache.base_costs(
                                    network,
                                    member_at(int(row), phase_start),
                                    modulations[int(row)],
                                    positions,
                                )
                                costs = base.copy()
                                costs[positions] = edge_latencies[i]
                                candidates.extend(oracle.shortest_commodity_paths(costs))
                            added = active.add_paths(candidates)
                        if added:
                            growth_events.append((phase, added))
                            added_counter.add(len(added))
                            perm = active.last_permutation
                            old_width = width
                            network = active.network
                            width = network.num_paths
                            state = _grow_buffer(state, perm, old_width, width)
                            recorded = _grow_buffer(recorded, perm, old_width, width)
                            start_flows = _grow_buffer(start_flows, perm, old_width, width)
                            # Growth is a shared information event: the board
                            # re-posts every row on the grown set, so no row
                            # integrates over columns its snapshot has never
                            # priced.
                            refresh = np.ones(size, dtype=bool)
                            board = BatchBulletinBoard(network, periods)
                            positions = oracle.network_edge_positions(network)
                            cost_cache = _PostedCostCache(oracle)
                            resolved, policies_now = resolve_policies(network)
                            ensemble = build_environment(network)
                            family = None
                            if ensemble is not None:
                                family = ensemble.family_at(row_times)
                                board.set_networks(family)
                            tele.event(
                                "columns_grown", phase=phase, added=len(added), paths=width
                            )
                        for row in range(size):
                            if not refresh[row]:
                                continue
                            newly_closed = closed_now[row] - previously_closed[row]
                            if not newly_closed:
                                continue
                            crossing = active.invalidate_columns(network, closed_now[row])
                            invalidated_counter.add(len(crossing))
                            values = state[row, :width]
                            repaired, moved = _evict_closed_columns(
                                network,
                                values,
                                crossing,
                                member_at(row, phase_start).path_latencies(values),
                            )
                            state[row, :width] = repaired
                            if moved > 0.0:
                                eviction_events.append((phase, row, moved))
                                tele.event(
                                    "columns_evicted", phase=phase, row=row, volume=moved
                                )
                                tele.histogram("cg_batch.evicted_volume").observe(moved)
                        board.post_rows(row_times, state[:, :width], mask=refresh)
                        for row in np.flatnonzero(refresh):
                            posted_modulations[int(row)] = modulations[int(row)]
                        cg_span.annotate(columns_added=len(added), paths=width)
                previously_closed = closed_now
                path_counts.append(width)

                start_flows[phase] = state
                if stale:
                    with tele.span("field_eval", rows=size):
                        field_fn = frozen_field(
                            *policy_tables(
                                network,
                                policies_now,
                                board.posted_flows,
                                board.posted_path_latencies,
                            )
                        )
                else:
                    network_ref, family_ref, policies_ref = network, family, policies_now

                    def field_fn(time, flows: np.ndarray) -> np.ndarray:
                        if family_ref is not None:
                            live = family_ref.path_latencies_batch(flows, np.arange(size))
                        else:
                            live = network_ref.path_latencies_batch(flows)
                        return frozen_field(
                            *policy_tables(network_ref, policies_ref, flows, live)
                        )(time, flows)

                with tele.span("integrate", state_bytes=state[:, :width].nbytes):
                    current = advance_phase(
                        stepper, field_fn, state[:, :width], phase_start, phase_end, step
                    )
                projected = FlowVector.project_batch(network, current)
                finite = np.isfinite(projected).all(axis=1)
                if not finite.all():
                    raise ValueError(
                        f"row {int(np.argmin(finite))} has non-finite flows "
                        f"at the end of phase {phase}"
                    )
                state[:, :width] = projected
                recorded[phase + 1] = state
                times[phase + 1] = phase_end
                phase_spans.append((phase_start, phase_end))
                phases_counter.add()
                completed = phase + 1
            if stop_when is not None and stop_when(phase_end, state[:, :width]):
                tele.event("stop_when_fired", time=phase_end, phase=phase)
                break
            if phase_end >= horizon:
                break

        # The per-row duality-gap certificate: price each row's final flows
        # in its final effective environment through the shared oracle.
        from ..solvers.edge_frank_wolfe import relative_duality_gap

        final_time = float(times[completed])
        for row in range(size):
            full_flows = oracle.expand_edge_values(
                network, network.edge_flows(state[row, :width])
            )
            gaps[row] = relative_duality_gap(
                member_at(row, final_time), oracle, full_flows
            )
            tele.histogram("cg_batch.duality_gap").observe(float(gaps[row]))
        run_span.annotate(max_duality_gap=float(gaps.max()))
    finally:
        run_span.annotate(
            final_paths=width,
            columns_added=sum(len(paths) for _, paths in growth_events),
        )
        run_span.close()
    tele.counter("cg_batch.runs").add()

    samples = completed + 1
    return BatchColumnGenerationResult(
        network=network,
        active=active,
        times=times[:samples].copy(),
        flows=np.transpose(recorded[:samples, :, :width], (1, 0, 2)).copy(),
        phase_start_flows=np.transpose(
            start_flows[:completed, :, :width], (1, 0, 2)
        ).copy(),
        phase_spans=phase_spans,
        update_period=update_period,
        stale=stale,
        policy_labels=[policy.label() for policy in resolved],
        duality_gaps=gaps,
        growth_events=growth_events,
        path_counts=path_counts,
        eviction_events=eviction_events,
    )
