"""Column generation for B same-topology replicas with one shared oracle.

Column generation is the fluid engine plus one growth step:
:class:`ColumnGenerationSimulator` is a
:class:`~repro.batch.engine.BatchSimulator` whose phase-start step grows the
restricted path set, so posting, field assembly, stepping, projection, the
non-finite check, per-row ``stop_when`` freezing and recording are the fluid
engine's own, and rows may differ in update period, horizon and
steps-per-phase like any fluid batch.
:func:`~repro.largescale.columns.simulate_with_column_generation` runs one
replica as its one-row case.

At every row's every phase start, before its board posts (Eq. 3), the step

1. queries the shared oracle once for all active rows: their full-graph
   costs are stacked as ``(R, E)``, each row's live edge latencies (priced
   in its own scenario's effective network via
   :class:`~repro.scenarios.scenario.ScenarioEnsemble`) on known paths and
   its environment's zero-flow latencies elsewhere, and one predecessor
   walk returns the distinct cheapest paths in row order;
2. grows the one shared :class:`~repro.largescale.columns.ActivePathSet` by
   the **union** of the per-row discoveries.  A new column enters with zero
   flow on every row -- including the rows that did not discover it -- and
   the engine re-expresses its state, its recorded samples, its board and
   its scenario ensemble on the grown network (the one-network family of
   its ``B`` rows);
3. evicts per row: a row whose scenario closes an edge moves the flow of
   its crossing columns onto its best open column, while other rows keep
   routing over those columns.

The board then posts the grown and repaired state, so no row integrates
over columns its snapshot has never priced.

Row semantics:

* **Closed mode** (``active.closed``): the set never grows, and a row is
  exactly the fluid dynamics of :func:`~repro.core.simulator.simulate` on
  the same path set, which ``tests/largescale/test_batch_columns.py`` checks
  bit for bit.
* **Open mode**: rows share the union restricted set, which is a deliberate
  departure from one-row runs (a one-row run only ever sees its own
  discoveries).  Column generation is documented as a heuristic away from
  equilibrium, and sharing discoveries only ever *adds* zero-flow options.

At the end of the run every row receives the oracle's
relative-duality-gap certificate (the same one Frank--Wolfe uses), so a
batched run documents per row how far from Wardrop equilibrium it settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..batch.engine import (
    BatchConfig,
    BatchResult,
    BatchSimulator,
    StopPredicate,
    _grow_buffer,
)
from ..core.trajectory import planned_phase_counts
from ..telemetry.runtime import get_telemetry
from ..wardrop.family import NetworkFamily
from ..wardrop.network import WardropNetwork
from ..wardrop.paths import Path
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
    "ColumnGenerationSimulator",
    "simulate_with_column_generation_batch",
]


@dataclass
class BatchColumnGenerationResult(BatchResult):
    """The outcome of one batched column-generation run.

    A :class:`~repro.batch.engine.BatchResult` on the **final** restricted
    network (``flows`` has shape ``(B, S, P_final)``; earlier samples carry
    zero flow on later-discovered columns), whose trajectories' phase starts
    are the post-eviction states.  ``duality_gaps`` holds the per-row relative
    duality gap of the final flows in each row's final effective network --
    the oracle certificate that the row settled (close) to a Wardrop
    equilibrium of the *full* network.  ``growth_events`` lists
    ``(phase, new_paths)`` pairs, ``path_counts`` the set's size at every
    phase start and ``eviction_events`` ``(phase, row, volume moved off
    closed columns)`` triples.
    """

    active: Optional[ActivePathSet] = None
    duality_gaps: Optional[np.ndarray] = None
    growth_events: List[Tuple[int, List[Path]]] = field(default_factory=list)
    path_counts: List[int] = field(default_factory=list)
    eviction_events: List[Tuple[int, int, float]] = field(default_factory=list)

    @property
    def total_columns_added(self) -> int:
        return sum(len(paths) for _, paths in self.growth_events)

    @property
    def phase_spans(self) -> List[Tuple[float, float]]:
        """The ``(start, end)`` times of every phase of rows sharing one clock."""
        clock = self.times[0, : self.num_points[0]]
        for row in range(1, self.batch_size):
            if not np.array_equal(self.times[row, : self.num_points[row]], clock):
                raise ValueError(
                    "rows run on different clocks; read each row's (K, 2) "
                    "trajectory(row).phases array instead"
                )
        return list(zip(clock[:-1].tolist(), clock[1:].tolist()))


class ColumnGenerationSimulator(BatchSimulator):
    """A :class:`~repro.batch.engine.BatchSimulator` whose restricted path
    set grows at every phase start (see the module docstring).

    ``policies`` is one policy or builder ``network -> policy`` for every
    row, or one per row; builders are re-invoked on the grown network after
    every growth event.  ``config`` and ``scenarios`` are the fluid
    engine's.  A simulator grows ``active`` as it runs, so it runs once.
    """

    engine_name = "column-generation-batch"

    def __init__(
        self,
        active: ActivePathSet,
        policies: Union[PolicyOrBuilder, Sequence[PolicyOrBuilder]],
        config: BatchConfig,
        scenarios: Optional[Sequence[Optional["Scenario"]]] = None,
    ):
        batch = config.batch_size
        specs = list(policies) if isinstance(policies, (list, tuple)) else [policies] * batch
        self.active = active
        self._policy_specs = specs
        super().__init__(
            active.network, self._resolve_policies(active.network), config, scenarios
        )
        self._positions = active.oracle.network_edge_positions(self.network)
        self._off_path: Dict[object, np.ndarray] = {}
        self._closed: List[frozenset] = [frozenset()] * batch
        phases = int(planned_phase_counts(config.horizons, config.update_periods).max())
        self._start_flows = np.zeros((batch, phases, self.network.num_paths))
        self.growth_events: List[Tuple[int, List[Path]]] = []
        self.path_counts: List[int] = []
        self.eviction_events: List[Tuple[int, int, float]] = []

    def _resolve_policies(self, network: WardropNetwork):
        return [_resolve_policy(spec, network) for spec in self._policy_specs]

    def _scenario(self, row: int) -> Optional["Scenario"]:
        return self._scenarios[row] if self._scenarios is not None else None

    def _member(self, row: int, time: float) -> WardropNetwork:
        """Row ``row``'s effective network at ``time``."""
        scenario = self._scenario(row)
        return self.network if scenario is None else scenario.network_at(self.network, time)

    def _query_costs(self, rows: np.ndarray, starts, edge_latencies: np.ndarray) -> np.ndarray:
        """Full-graph ``(R, E)`` costs of ``rows``: each row's live on-path
        latencies, and its environment's zero-flow latencies off every known
        path.

        The off-path part depends only on the scenario modulation -- a
        network's latency functions do not depend on its path set -- so it
        is evaluated once per distinct modulation and kept across growth.
        """
        bases = []
        for row in rows.tolist():
            time = float(starts[row])
            scenario = self._scenario(row)
            modulation = None if scenario is None else scenario.modulation_at(time)
            base = self._off_path.get(modulation)
            if base is None:
                base = self.active.oracle.free_flow_costs(self._member(row, time))
                self._off_path[modulation] = base
            bases.append(base)
        costs = np.stack(bases)
        costs[:, self._positions] = edge_latencies
        return costs

    def _phase_start(self, phase, starts, rows, flows):
        tele = get_telemetry()
        active = self.active
        perm = None
        with tele.span("column_generation_round", phase=phase, rows=len(rows)) as span:
            added: List[Path] = []
            if not active.closed:
                latencies = (self._phase_family or self.family).edge_latencies_batch(
                    self.network.edge_flows(flows[rows]), rows
                )
                costs = self._query_costs(rows, starts, latencies)
                added = active.add_paths(active.oracle.shortest_commodity_paths(costs))
            if added:
                perm = active.last_permutation
                self.network = active.network
                self.family = NetworkFamily.replicate(self.network, self.family.size)
                width = self.network.num_paths
                flows = _grow_buffer(flows, perm, width)
                self._start_flows = _grow_buffer(self._start_flows, perm, width)
                self._set_policies(self._resolve_policies(self.network))
                self._positions = active.oracle.network_edge_positions(self.network)
                self.growth_events.append((phase, added))
                tele.counter("cg_batch.columns_added").add(len(added))
                tele.event("columns_grown", phase=phase, added=len(added), paths=width)
            network = self.network
            for row in rows.tolist():
                time = float(starts[row])
                scenario = self._scenario(row)
                closed = scenario.closed_edges(time) if scenario is not None else frozenset()
                newly_closed = closed - self._closed[row]
                self._closed[row] = closed
                if not newly_closed:
                    continue
                crossing = active.invalidate_columns(network, closed)
                tele.counter("cg_batch.columns_invalidated").add(len(crossing))
                values = flows[row]
                flows[row], moved = _evict_closed_columns(
                    network, values, crossing, self._member(row, time).path_latencies(values)
                )
                if moved > 0.0:
                    self.eviction_events.append((phase, row, moved))
                    tele.event("columns_evicted", phase=phase, row=row, volume=moved)
                    tele.histogram("cg_batch.evicted_volume").observe(moved)
            self._start_flows[rows, phase] = flows[rows]
            self.path_counts.append(network.num_paths)
            span.annotate(columns_added=len(added), paths=network.num_paths)
        return flows, perm

    def run(
        self,
        initial_flows=None,
        stop_when: Optional[StopPredicate] = None,
    ) -> BatchColumnGenerationResult:
        """Run the batch (see :meth:`BatchSimulator.run`) and certify every row.

        ``stop_when(times, flows, rows)`` sees the active rows' flows on the
        current restricted network (:attr:`network`).
        """
        # Imported here: the solvers package imports this one.
        from ..solvers.edge_frank_wolfe import relative_duality_gap

        result = super().run(initial_flows, stop_when=stop_when)
        tele = get_telemetry()
        oracle = self.active.oracle
        network = self.network
        gaps = np.empty(self.config.batch_size)
        for row in range(len(gaps)):
            last = result.num_points[row] - 1
            full_flows = oracle.expand_edge_values(
                network, network.edge_flows(result.flows[row, last])
            )
            member = self._member(row, float(result.times[row, last]))
            gaps[row] = relative_duality_gap(member, oracle, full_flows)
            tele.histogram("cg_batch.duality_gap").observe(float(gaps[row]))
        tele.counter("cg_batch.runs").add()
        fields = dict(vars(result))
        fields["policy_names"] = [name + " +column-generation" for name in result.policy_names]
        fields["phase_start_flows"] = self._start_flows
        return BatchColumnGenerationResult(
            **fields,
            active=self.active,
            duality_gaps=gaps,
            growth_events=self.growth_events,
            path_counts=self.path_counts,
            eviction_events=self.eviction_events,
        )


def simulate_with_column_generation_batch(
    active: ActivePathSet,
    policies: Union[PolicyOrBuilder, Sequence[PolicyOrBuilder]],
    update_period,
    horizon,
    batch: Optional[int] = None,
    scenarios: Optional[Sequence[Optional["Scenario"]]] = None,
    initial_flows=None,
    stale: bool = True,
    steps_per_phase=50,
    stop_when: Optional[StopPredicate] = None,
) -> BatchColumnGenerationResult:
    """Run ``B`` column-generation replicas as one ensemble.

    ``update_period``, ``horizon`` and ``steps_per_phase`` are scalars or
    per-row sequences; ``scenarios`` and ``policies`` may vary per row.  The
    batch size is taken from any of these sequences, or passed explicitly as
    ``batch``.  ``stop_when(times, flows, rows)`` is the fluid engine's
    per-row stopping condition, evaluated at every phase boundary on the
    active rows' flows over the current restricted network
    (``active.network``); rows whose condition fires are frozen.

    See the module docstring for the union-growth semantics.
    """
    sequences = [
        value
        for value in (update_period, horizon, steps_per_phase)
        if np.ndim(value) == 1
    ]
    if isinstance(policies, (list, tuple)):
        sequences.append(policies)
    if scenarios is not None:
        scenarios = list(scenarios)
        sequences.append(scenarios)
    sizes = {len(seq) for seq in sequences}
    if batch is not None:
        sizes.add(int(batch))
    if len(sizes) > 1:
        raise ValueError(f"inconsistent batch sizes: {sorted(sizes)}")
    if not sizes:
        raise ValueError(
            "pass `batch` or a per-row sequence (scenarios, policies, periods) "
            "to fix the batch size"
        )
    size = sizes.pop()
    if size <= 0:
        raise ValueError("batch size must be positive")
    config = BatchConfig(
        update_periods=np.broadcast_to(np.asarray(update_period, dtype=float), (size,)),
        horizons=horizon,
        steps_per_phase=steps_per_phase,
        stale=stale,
    )
    simulator = ColumnGenerationSimulator(active, policies, config, scenarios=scenarios)
    return simulator.run(initial_flows, stop_when=stop_when)
