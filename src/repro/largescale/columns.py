"""Active path sets: shortest-path column generation at bulletin refreshes.

On real road networks the strategy sets ``P_i`` are astronomically large, so
the reproduction cannot hand every agent the full path list.  What it *can*
do -- and what matches the paper's information model -- is let the set of
*known* routes grow exactly when new information arrives: at every phase
start, when the bulletin board posts, a shortest-path oracle is queried
against the current edge latencies, and any cheapest route not yet in the
restricted set becomes a new column (a new path with zero flow that agents
may now sample and migrate onto).  Within a phase the dynamics run
unchanged on the current restricted
:class:`~repro.wardrop.network.WardropNetwork`.

:class:`ActivePathSet` manages the restricted set (the classic
:class:`~repro.wardrop.paths.PathSet` is recovered as the *closed* special
case where augmentation is disabled), and
:func:`simulate_with_column_generation` runs the rerouting dynamics of one
replica on it.  It is the one-row case of the batched driver in
:mod:`repro.largescale.batch_columns`, whose simulator is the fluid engine
plus the growth step.

Column generation is **exact at equilibrium** for the Beckmann problem: if
the restricted dynamics settle at a flow whose shortest path (under live
latencies) is already in the set and carries no latency advantage, that flow
is a Wardrop equilibrium of the *full* network -- the oracle certificate is
the same one Frank--Wolfe uses.  Away from equilibrium it is a heuristic:
routes are only discovered at refresh instants, so a transient may
temporarily route along suboptimal known paths (which is precisely the
staleness phenomenon the paper studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from ..core.policy import ReroutingPolicy
from ..core.trajectory import Trajectory
from ..wardrop.commodity import Commodity, normalise_demands
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.paths import Path, PathSet
from .shortest import ShortestPathOracle

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..batch.engine import StopPredicate
    from ..scenarios.scenario import Scenario

PolicyOrBuilder = Union[ReroutingPolicy, Callable[[WardropNetwork], ReroutingPolicy]]


class ActivePathSet:
    """A growing restricted path set backed by a shortest-path oracle.

    Parameters
    ----------
    graph:
        The full multigraph (edges carry
        :class:`~repro.wardrop.latency.LatencyFunction` attributes).
    commodities:
        The OD pairs; demands are normalised once here so every rebuilt
        restricted network shares the exact same demand vector.
    initial_paths:
        Optional seed paths per commodity (``Sequence[Sequence[Path]]``).
        Defaults to one free-flow shortest path per commodity -- the routes
        agents would know before any congestion information exists.
    closed:
        If ``True`` augmentation is a no-op: the set behaves exactly like
        the classic fixed :class:`PathSet` (the closed special case).
    first_thru_node:
        TNTP centroid bound forwarded to the oracle.
    """

    def __init__(
        self,
        graph: nx.MultiDiGraph,
        commodities: Sequence[Commodity],
        initial_paths: Optional[Sequence[Sequence[Path]]] = None,
        closed: bool = False,
        first_thru_node: Optional[int] = None,
    ):
        self.graph = graph
        self.commodities: List[Commodity] = list(normalise_demands(list(commodities)))
        self.closed = closed
        self.oracle = ShortestPathOracle(
            graph, self.commodities, first_thru_node=first_thru_node
        )
        if initial_paths is None:
            seeds = self.oracle.shortest_commodity_paths(self.oracle.free_flow_costs())
            initial_paths = [[seed] for seed in seeds]
        self._paths_by_commodity: List[List[Path]] = [
            list(paths) for paths in initial_paths
        ]
        if len(self._paths_by_commodity) != len(self.commodities):
            raise ValueError(
                f"initial paths cover {len(self._paths_by_commodity)} commodities, "
                f"instance has {len(self.commodities)}"
            )
        self._known = {
            path for paths in self._paths_by_commodity for path in paths
        }
        self.version = 0
        self._path_set = PathSet(self._paths_by_commodity)
        # The first network build validates the (caller-supplied) seed paths;
        # grown rebuilds skip the full re-validation scan -- oracle-traced
        # paths are graph paths by construction.
        self._validated = False
        # Old-index -> new-index permutation of the most recent growth event
        # (paths keep their identity; appending shifts later global indices).
        self.last_permutation: Optional[np.ndarray] = None
        self._network: Optional[WardropNetwork] = None

    @classmethod
    def from_network(cls, network: WardropNetwork, closed: bool = False) -> "ActivePathSet":
        """Wrap an existing network's graph and commodities.

        ``closed=True`` seeds with the network's full enumerated path set
        and freezes it -- the restricted dynamics are then *identical* to
        the classic fixed-path-set dynamics.  ``closed=False`` starts from
        free-flow shortest paths and grows from there (the network's own
        path set is used only when it was itself built restricted).
        """
        initial: Optional[Sequence[Sequence[Path]]] = None
        if closed:
            initial = [
                network.paths.commodity_paths(i)
                for i in range(network.num_commodities)
            ]
        return cls(
            network.graph,
            network.commodities,
            initial_paths=initial,
            closed=closed,
            first_thru_node=network.graph.graph.get("first_thru_node"),
        )

    # Structure --------------------------------------------------------------

    @property
    def num_paths(self) -> int:
        return sum(len(paths) for paths in self._paths_by_commodity)

    def path_set(self) -> PathSet:
        """Return the current restricted :class:`PathSet` (shared, grown in place)."""
        return self._path_set

    @property
    def network(self) -> WardropNetwork:
        """The restricted network over the current path set (cached)."""
        if self._network is None:
            self._network = WardropNetwork(
                self.graph,
                self.commodities,
                normalise=False,
                paths=self._path_set,
                validate_paths=not self._validated,
            )
            self._validated = True
        return self._network

    # Growth -----------------------------------------------------------------

    def augment(self, edge_costs: np.ndarray) -> List[Path]:
        """Grow the set by the cheapest paths under ``edge_costs``.

        ``edge_costs`` is an oracle-order cost vector (typically the posted
        edge latencies, expanded to the full graph).  Returns the list of
        *new* paths (empty if every commodity's cheapest route was already
        known, or if the set is closed).
        """
        if self.closed:
            return []
        return self.add_paths(self.oracle.shortest_commodity_paths(edge_costs))

    def add_paths(self, paths: Sequence[Path]) -> List[Path]:
        """Grow the set by the given candidate paths (skipping known ones).

        This is the union entry point of the batched driver: candidates
        discovered by different rows are merged here, each new column joining
        the end of its commodity's block.  The path set grows *incrementally*
        (see :meth:`~repro.wardrop.paths.PathSet.extended`): edge membership
        -- and therefore the CSR incidence assembly -- is carried over, only
        the new columns are scanned, and :attr:`last_permutation` records
        where every old global index moved.  Returns the new paths; a closed
        set never grows.
        """
        if self.closed:
            return []
        added: List[Path] = []
        for path in paths:
            if path not in self._known:
                self._known.add(path)
                self._paths_by_commodity[path.commodity_index].append(path)
                added.append(path)
        if added:
            self._path_set, self.last_permutation = self._path_set.extended(added)
            self.version += 1
            self._network = None
        return added

    def invalidate_columns(self, network: WardropNetwork, closed_edges) -> List[int]:
        """Return the indices of columns crossing any of ``closed_edges``.

        The columns stay in the set (the trajectory bookkeeping needs a
        monotone path dimension) but the caller is expected to make them
        unusable: the column-generation driver moves their flow onto each
        commodity's best open column the moment a closure starts, and the
        scenario's closure penalty keeps the dynamics from migrating back.
        """
        closed = set(closed_edges)
        if not closed:
            return []
        return [
            index
            for index, path in enumerate(network.paths)
            if any(edge in closed for edge in path.edges)
        ]

    def __repr__(self) -> str:
        return (
            f"ActivePathSet(paths={self.num_paths}, "
            f"commodities={len(self.commodities)}, version={self.version}, "
            f"closed={self.closed})"
        )


@dataclass
class ColumnGenerationResult:
    """The outcome of a column-generation simulation run.

    ``trajectory`` is recorded on the *final* restricted network (earlier
    samples are embedded, with zero flow on later-discovered columns), so
    the whole analysis toolkit applies unchanged.  ``growth_events`` lists
    ``(phase_index, new_paths)`` pairs for every refresh that discovered
    routes; ``path_counts`` traces the restricted set's size per phase.
    """

    trajectory: Trajectory
    network: WardropNetwork
    active: ActivePathSet
    growth_events: List[Tuple[int, List[Path]]] = field(default_factory=list)
    path_counts: List[int] = field(default_factory=list)
    # Scenario closures: (phase_index, flow volume moved off closed columns).
    eviction_events: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def final_flow(self) -> FlowVector:
        return self.trajectory.final_flow

    @property
    def total_columns_added(self) -> int:
        return sum(len(paths) for _, paths in self.growth_events)


def _resolve_policy(policy: PolicyOrBuilder, network: WardropNetwork) -> ReroutingPolicy:
    if isinstance(policy, ReroutingPolicy):
        return policy
    return policy(network)


def _evict_closed_columns(
    network: WardropNetwork,
    values: np.ndarray,
    crossing: List[int],
    path_latencies: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Move flow off closed (crossing) columns onto each commodity's best open one.

    Returns the repaired flow and the total volume moved.  A commodity whose
    every column crosses a closed edge keeps its flow (there is nothing open
    to route onto -- the closure penalty still prices the columns out for the
    oracle, which will seed a detour at the next refresh).
    """
    if not crossing:
        return values, 0.0
    crossing_set = set(crossing)
    values = values.copy()
    moved = 0.0
    for i in range(network.num_commodities):
        indices = list(network.paths.commodity_indices(i))
        closed_local = [p for p in indices if p in crossing_set]
        open_local = [p for p in indices if p not in crossing_set]
        if not closed_local or not open_local:
            continue
        volume = float(values[closed_local].sum())
        if volume <= 0.0:
            continue
        best = min(open_local, key=lambda p: (path_latencies[p], p))
        values[closed_local] = 0.0
        values[best] += volume
        moved += volume
    return values, moved


def simulate_with_column_generation(
    active: ActivePathSet,
    policy: PolicyOrBuilder,
    update_period: float,
    horizon: float,
    initial_flow: Optional[FlowVector] = None,
    stale: bool = True,
    stop_when: Optional["StopPredicate"] = None,
    scenario: Optional["Scenario"] = None,
) -> ColumnGenerationResult:
    """Run the rerouting dynamics with column generation at every refresh.

    The dynamics follow :func:`~repro.core.simulator.simulate` phase for
    phase.  At every phase start the oracle is queried against the edge
    latencies the board is about to post; newly discovered routes join the
    restricted set with zero flow before the phase integrates, so agents can
    sample them for the rest of the run -- route discovery is tied to
    information arrival, as in the paper's model.  This is the one-row case
    of
    :func:`~repro.largescale.batch_columns.simulate_with_column_generation_batch`.

    ``policy`` may be a fixed :class:`ReroutingPolicy` (reused across
    growth, e.g. one whose migration constant covers the full network) or a
    builder ``network -> policy`` re-invoked after every growth event.
    ``stop_when(times, flows, rows)`` is the engines' batch predicate,
    evaluated at phase boundaries as a one-row batch (``rows == [0]``) on
    the flow over the current restricted network, exactly like
    :func:`~repro.core.simulator.simulate`'s.

    ``scenario`` makes the environment nonstationary (sampled at phase
    starts, like the engines), so every query prices the environment of its
    phase.  When a closure starts, the crossing columns are invalidated --
    their flow moves onto each commodity's best open column
    (``eviction_events`` records the volume) -- and the same phase start's
    query seeds detour routes around the closed link.
    """
    from .batch_columns import simulate_with_column_generation_batch

    result = simulate_with_column_generation_batch(
        active,
        policy,
        update_period=update_period,
        horizon=horizon,
        batch=1,
        scenarios=None if scenario is None else [scenario],
        initial_flows=initial_flow,
        stale=stale,
        stop_when=stop_when,
    )
    return ColumnGenerationResult(
        trajectory=result.trajectory(0),
        network=result.network,
        active=active,
        growth_events=result.growth_events,
        path_counts=result.path_counts,
        eviction_events=[(phase, volume) for phase, _, volume in result.eviction_events],
    )
