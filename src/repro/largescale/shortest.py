"""Shortest-path oracle over the full graph, and all-or-nothing loading.

Large instances are driven by *oracles* instead of path enumeration: given
the current (or posted) edge costs, a Dijkstra query returns one cheapest
``s -> t`` path, and loading every commodity's whole demand onto its
cheapest path yields the classical all-or-nothing flow -- the direction
oracle of Frank--Wolfe and the column generator of
:class:`~repro.largescale.columns.ActivePathSet`.

The oracle owns the canonical ordering of *all* graph edges (the restricted
network's :attr:`~repro.wardrop.network.WardropNetwork.edges` only lists
edges on enumerated paths) and exposes cost vectors over that order.

First-thru-node semantics (TNTP): road-network files mark the first node
that real traffic may pass *through*; lower-numbered nodes are zone
centroids that can appear only as origins or destinations.  The oracle
enforces this by pricing the outgoing arcs of every centroid other than the
query's source at ``+inf``.

Queries run ``scipy.sparse.csgraph.dijkstra`` over a CSR matrix with one
entry per distinct ``(u, v)`` node pair.  Tie rule: parallel arcs collapse
to their cheapest arc, and among equally cheap parallel arcs the one with
the lowest oracle edge index carries the path.  Ties between equal-cost
routes through different nodes are broken by scipy's Dijkstra, which is
deterministic for fixed costs.  All commodity sources are answered by one
C call (plus one per centroid source, whose own out-arcs must stay open),
and a single vectorised predecessor walk over every commodity then yields
the paths and the all-or-nothing edge flows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from ..wardrop.commodity import Commodity
from ..wardrop.latency import EdgeLatencyTable
from ..wardrop.network import LATENCY_ATTR
from ..wardrop.paths import EdgeKey, Path

@dataclass(frozen=True)
class AllOrNothingLoad:
    """The result of one all-or-nothing assignment.

    ``edge_flows`` is indexed by the oracle's edge order; ``sptt`` is the
    shortest-path travel time ``sum_i r_i * dist(s_i, t_i)`` under the query
    costs -- the lower bound that relative duality gaps are measured against.
    """

    edge_flows: np.ndarray
    sptt: float


class ShortestPathOracle:
    """Dijkstra queries against pluggable edge costs on a fixed multigraph.

    Parameters
    ----------
    graph:
        The full ``networkx.MultiDiGraph`` (parallel edges allowed).
    commodities:
        The OD pairs whose sources group the one-to-many queries.
    first_thru_node:
        Optional TNTP-style centroid bound: integer nodes strictly below it
        may start or end a path but never be passed through.
    """

    def __init__(
        self,
        graph: nx.MultiDiGraph,
        commodities: Sequence[Commodity],
        first_thru_node: Optional[int] = None,
    ):
        self.graph = graph
        self.commodities: List[Commodity] = list(commodities)
        self.first_thru_node = first_thru_node
        # Canonical edge order: the same string sort PathSet.edges() uses, so
        # positions are stable across restricted networks of one graph.
        self.edges: List[EdgeKey] = sorted(graph.edges(keys=True), key=str)
        self.edge_index: Dict[EdgeKey, int] = {e: i for i, e in enumerate(self.edges)}

        nodes = list(graph.nodes)
        node_index = {node: i for i, node in enumerate(nodes)}
        for commodity in self.commodities:
            if commodity.source not in node_index or commodity.sink not in node_index:
                raise ValueError(
                    f"commodity endpoints {commodity.source!r}->{commodity.sink!r} "
                    "missing from graph"
                )
        num_nodes = len(nodes)
        self._num_nodes = num_nodes

        # Arcs sorted by node-pair key ``tail * N + head`` (stable, so each
        # pair's run starts at its lowest edge index).  The distinct keys are
        # already in CSR order: rows by tail, columns sorted within a row.
        tails = np.array([node_index[u] for u, _v, _key in self.edges], dtype=np.int64)
        heads = np.array([node_index[v] for _u, v, _key in self.edges], dtype=np.int64)
        arc_keys = tails * num_nodes + heads
        self._arc_order = np.argsort(arc_keys, kind="stable")
        self._pair_keys, self._pair_starts = np.unique(
            arc_keys[self._arc_order], return_index=True
        )
        self._has_parallel_arcs = len(self._pair_keys) < len(self.edges)
        pair_tails = self._pair_keys // num_nodes
        self._pair_tails = pair_tails
        self._csr_indices = (self._pair_keys % num_nodes).astype(np.int32)
        self._csr_indptr = np.searchsorted(
            pair_tails, np.arange(num_nodes + 1)
        ).astype(np.int32)

        is_centroid = np.array(
            [
                first_thru_node is not None
                and isinstance(node, (int, np.integer))
                and node < first_thru_node
                for node in nodes
            ],
            dtype=bool,
        )
        self._centroid_out_pairs = is_centroid[pair_tails]
        # Per-network latency tables over `edges`; weak keys, so an entry
        # lives only as long as its network.
        self._tables = weakref.WeakKeyDictionary()

        # One query row per distinct source, in first-appearance order.
        # Plain sources share one C call; each centroid source gets its own.
        first_seen: Dict[int, int] = {}
        self._commodity_rows = np.array(
            [
                first_seen.setdefault(node_index[c.source], len(first_seen))
                for c in self.commodities
            ],
            dtype=np.int64,
        )
        self._sources = np.array(list(first_seen), dtype=np.int64)
        self._commodity_sources = self._sources[self._commodity_rows]
        self._commodity_sinks = np.array(
            [node_index[c.sink] for c in self.commodities], dtype=np.int64
        )
        centroid_source = is_centroid[self._sources]
        self._plain_rows = np.flatnonzero(~centroid_source)
        self._centroid_rows = np.flatnonzero(centroid_source)
        # Commodities grouped by source, each group in commodity order: the
        # order every per-commodity sum runs in.
        self._grouped = np.argsort(self._commodity_rows, kind="stable")

    @classmethod
    def for_network(cls, network) -> "ShortestPathOracle":
        """Build an oracle for a network, honouring its TNTP centroid metadata.

        The canonical constructor call (graph + commodities +
        ``first_thru_node`` from the graph metadata) recurs across the CLI,
        the solvers, the scenario toolkit and the benchmarks; this factory is
        the single spelling of it.
        """
        return cls(
            network.graph,
            network.commodities,
            first_thru_node=network.graph.graph.get("first_thru_node"),
        )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    # Cost vectors ----------------------------------------------------------

    def free_flow_costs(self, network=None) -> np.ndarray:
        """Return every edge's latency at zero flow (the Dijkstra seed costs).

        With a ``network`` its (override-aware) :meth:`latency_table` is
        used; without one the latencies are read straight off the graph's
        edge attributes -- the pre-network situation of the TNTP loader and
        of :class:`~repro.largescale.columns.ActivePathSet` seeding.
        """
        zeros = np.zeros(self.num_edges)
        if network is not None:
            return self.latency_table(network).values(zeros)
        functions = [self.graph[u][v][key][LATENCY_ATTR] for (u, v, key) in self.edges]
        return EdgeLatencyTable(functions).values(zeros)

    def latency_costs(self, network, edge_flows: np.ndarray) -> np.ndarray:
        """Evaluate every graph edge's latency at the given oracle-order flows."""
        return self.latency_table(network).values(edge_flows)

    def latency_table(self, network) -> EdgeLatencyTable:
        """Return ``network``'s latencies over :attr:`edges` as one table.

        Built once per network and held only while the network lives, so an
        oracle outliving many effective networks keeps none of them.
        """
        table = self._tables.get(network)
        if table is None:
            table = EdgeLatencyTable([network.latency_function(edge) for edge in self.edges])
            self._tables[network] = table
        return table

    def network_edge_positions(self, network) -> np.ndarray:
        """Map ``network.edges`` (on-path edges) to oracle edge positions."""
        return np.array([self.edge_index[edge] for edge in network.edges], dtype=np.int64)

    def expand_edge_values(self, network, values: np.ndarray) -> np.ndarray:
        """Scatter per-``network.edges`` values into a full oracle-order vector.

        Off-path edges get zero -- exactly right for edge *flows* of a
        restricted network (no enumerated path crosses them).
        """
        full = np.zeros(self.num_edges)
        full[self.network_edge_positions(network)] = np.asarray(values, dtype=float)
        return full

    # Queries ---------------------------------------------------------------

    def _check_costs(self, costs: np.ndarray) -> np.ndarray:
        costs = np.asarray(costs, dtype=float)
        if len(costs) != self.num_edges:
            raise ValueError(
                f"cost vector has length {len(costs)}, oracle has {self.num_edges} edges"
            )
        # ``costs < 0`` is False for NaN, so a bare negativity check would
        # let NaN costs through and silently corrupt Dijkstra distances.
        # +inf stays legal: centroid out-arcs are priced at +inf, and an
        # infinite edge is simply unusable.
        if np.any(np.isnan(costs)):
            raise ValueError("Dijkstra received NaN edge costs")
        if np.any(costs < 0):
            raise ValueError("Dijkstra requires non-negative edge costs")
        return costs

    def _pair_costs(self, costs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Collapse arcs to node pairs: each pair's cost and carrying edge.

        The carrying edge is the pair's cheapest arc, the lowest edge index
        among equally cheap ones.
        """
        arc_costs = costs[self._arc_order]
        if not self._has_parallel_arcs:
            return arc_costs, self._arc_order
        cheapest = np.minimum.reduceat(arc_costs, self._pair_starts)
        run_lengths = np.diff(np.append(self._pair_starts, len(arc_costs)))
        positions = np.where(
            arc_costs == np.repeat(cheapest, run_lengths),
            np.arange(len(arc_costs)),
            len(arc_costs),
        )
        return cheapest, self._arc_order[np.minimum.reduceat(positions, self._pair_starts)]

    def _query(self, costs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run Dijkstra from every distinct commodity source.

        Returns the ``(sources, nodes)`` distance and predecessor-node arrays
        and each node pair's carrying edge.
        """
        from scipy.sparse import csgraph

        pair_costs, pair_edges = self._pair_costs(self._check_costs(costs))
        shape = (self._num_nodes, self._num_nodes)
        dist = np.empty((len(self._sources), self._num_nodes))
        pred = np.empty((len(self._sources), self._num_nodes), dtype=np.int64)

        def run(data: np.ndarray, rows: np.ndarray) -> None:
            matrix = sparse.csr_matrix(
                (data, self._csr_indices, self._csr_indptr), shape=shape
            )
            dist[rows], pred[rows] = csgraph.dijkstra(
                matrix, indices=self._sources[rows], return_predecessors=True
            )

        blocked = self._centroid_out_pairs
        if len(self._plain_rows):
            run(
                np.where(blocked, np.inf, pair_costs) if blocked.any() else pair_costs,
                self._plain_rows,
            )
        for row in self._centroid_rows:
            own = self._pair_tails == self._sources[row]
            run(np.where(blocked & ~own, np.inf, pair_costs), np.array([row]))
        return dist, pred, pair_edges

    def _sink_distances(self, dist: np.ndarray) -> np.ndarray:
        return dist[self._commodity_rows, self._commodity_sinks]

    def _require_reachable(self, sink_distances: np.ndarray) -> None:
        unreachable = self._grouped[~np.isfinite(sink_distances[self._grouped])]
        if len(unreachable):
            commodity = self.commodities[int(unreachable[0])]
            raise ValueError(f"no path from {commodity.source!r} to {commodity.sink!r}")

    def _walk(self, pred: np.ndarray, pair_edges: np.ndarray) -> np.ndarray:
        """Trace every commodity's path back from its sink at once.

        Returns an ``(steps, commodities)`` matrix of oracle edge indices,
        sink-first, padded with ``-1`` once a commodity reaches its source.
        """
        node = self._commodity_sinks.copy()
        live = np.flatnonzero(node != self._commodity_sources)
        steps: List[np.ndarray] = []
        while len(live):
            heads = node[live]
            tails = pred[self._commodity_rows[live], heads]
            step = np.full(len(node), -1, dtype=np.int64)
            pairs = np.searchsorted(self._pair_keys, tails * self._num_nodes + heads)
            step[live] = pair_edges[pairs]
            steps.append(step)
            node[live] = tails
            live = live[tails != self._commodity_sources[live]]
        return np.array(steps, dtype=np.int64).reshape(len(steps), len(node))

    def shortest_commodity_paths(self, costs: np.ndarray) -> List[Path]:
        """Return one cheapest path per commodity."""
        dist, pred, pair_edges = self._query(costs)
        self._require_reachable(self._sink_distances(dist))
        walk = self._walk(pred, pair_edges)
        lengths = np.count_nonzero(walk >= 0, axis=0).tolist()
        edges = self.edges
        return [
            Path(tuple([edges[e] for e in column[:length][::-1]]), commodity_index)
            for commodity_index, (column, length) in enumerate(zip(walk.T.tolist(), lengths))
        ]

    def commodity_costs(self, costs: np.ndarray) -> np.ndarray:
        """Return each commodity's shortest-path cost under ``costs``.

        The per-OD column of the network report: one query, no path
        tracing.  Unreachable sinks get ``inf``.
        """
        dist, _pred, _pair_edges = self._query(costs)
        return self._sink_distances(dist)

    def all_or_nothing(
        self, costs: np.ndarray, demands: Optional[np.ndarray] = None
    ) -> AllOrNothingLoad:
        """Load every commodity's demand onto its cheapest path.

        ``demands`` defaults to the commodity demands; the result's
        ``edge_flows`` live on the oracle's edge order and ``sptt`` is the
        demand-weighted shortest-path travel time.  Both sums run over the
        commodities grouped by source, so each total accumulates in one
        fixed order.
        """
        if demands is None:
            demands = np.array([c.demand for c in self.commodities])
        demands = np.asarray(demands, dtype=float)[self._grouped]
        dist, pred, pair_edges = self._query(costs)
        sink_distances = self._sink_distances(dist)
        self._require_reachable(sink_distances)
        # Commodity-major: each edge's flow adds its commodities' demands in
        # grouped order (a commodity crosses an edge at most once).
        walk = self._walk(pred, pair_edges).T[self._grouped]
        on_path = walk >= 0
        flows = np.bincount(
            walk[on_path],
            weights=np.broadcast_to(demands[:, None], walk.shape)[on_path],
            minlength=self.num_edges,
        )
        terms = sink_distances[self._grouped] * demands
        sptt = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
        return AllOrNothingLoad(edge_flows=flows, sptt=sptt)
