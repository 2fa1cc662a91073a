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
deterministic for fixed costs.

Every query takes one ``(E,)`` cost vector or an ``(R, E)`` stack of them
(column generation reprices one row per replica at every phase start).  Per
cost row, all commodity sources are answered by one C call, plus one per
centroid source, whose own out-arcs must stay open; the rows are never
merged into one block-diagonal graph, whose distance output would grow as
``R**2``.  A single vectorised predecessor walk over the ``(R, sources,
nodes)`` predecessor arrays then traces every row's every commodity at once
and yields the paths and the all-or-nothing edge flows.  A stacked path
query returns each distinct ``(commodity, edge sequence)`` once, in
row-major first-appearance order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


class _StackIndex(NamedTuple):
    """Flat indices of R stacked cost rows' ``R * commodities`` walks.

    Entry ``r * commodities + i`` is row ``r``'s commodity ``i``:
    ``starts`` is the offset of its query row in the flattened ``(R,
    sources, nodes)`` arrays, ``pair_offsets`` that of its cost row in the
    flattened ``(R, pairs)`` carrying edges, ``sinks`` and ``sources`` its
    endpoint node indices and ``sink_entries`` its sink's flat entry.
    """

    pair_offsets: np.ndarray
    starts: np.ndarray
    sinks: np.ndarray
    sink_entries: np.ndarray
    sources: np.ndarray


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
        self._pair_runs = np.diff(np.append(self._pair_starts, len(self.edges)))
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
        self._grouped_demands = np.array([c.demand for c in self.commodities], dtype=float)[
            self._grouped
        ]
        # Flat walk indices per number of stacked cost rows.
        self._stacks: Dict[int, _StackIndex] = {}

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
        """Validate one ``(E,)`` cost vector or an ``(R, E)`` stack of them."""
        costs = np.asarray(costs, dtype=float)
        if costs.ndim not in (1, 2):
            raise ValueError(
                f"costs must be one (E,) vector or an (R, E) stack, got shape {costs.shape}"
            )
        if costs.shape[-1] != self.num_edges:
            raise ValueError(
                f"cost vector has length {costs.shape[-1]}, oracle has {self.num_edges} edges"
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
        """Collapse arcs to node pairs: each row's pair costs and carrying edges.

        Returns the ``(R, pairs)`` costs and the carrying edges flattened
        row-major to ``(R * pairs,)``.  The carrying edge is the pair's
        cheapest arc, the lowest edge index among equally cheap ones.
        """
        arc_costs = np.take(costs, self._arc_order, axis=1)
        if not self._has_parallel_arcs:
            return arc_costs, self._arc_order[None].repeat(len(costs), 0).reshape(-1)
        num_arcs = arc_costs.shape[1]
        cheapest = np.minimum.reduceat(arc_costs, self._pair_starts, axis=1)
        positions = np.where(
            arc_costs == np.repeat(cheapest, self._pair_runs, axis=1),
            np.arange(num_arcs),
            num_arcs,
        )
        carrying = self._arc_order[np.minimum.reduceat(positions, self._pair_starts, axis=1)]
        return cheapest, carrying.reshape(-1)

    def _query(self, costs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run Dijkstra from every distinct commodity source under every cost row.

        ``costs`` is checked and two-dimensional, ``(R, E)``.  Returns the
        ``(R, sources, nodes)`` distance and predecessor-node arrays and the
        rows' flattened carrying edges (see :meth:`_pair_costs`).  Every
        cost row is its own C call (plus one per centroid source): a
        block-diagonal graph of all rows would return ``R * sources``
        distances to ``R * nodes`` nodes.
        """
        from scipy.sparse import csgraph

        pair_costs, pair_edges = self._pair_costs(costs)
        num_rows = len(costs)
        shape = (self._num_nodes, self._num_nodes)
        dist = np.empty((num_rows, len(self._sources), self._num_nodes))
        pred = np.empty((num_rows, len(self._sources), self._num_nodes), dtype=np.int64)

        def run(data: np.ndarray, row: int, query_rows: np.ndarray) -> None:
            matrix = sparse.csr_matrix(
                (data, self._csr_indices, self._csr_indptr), shape=shape
            )
            dist[row, query_rows], pred[row, query_rows] = csgraph.dijkstra(
                matrix, indices=self._sources[query_rows], return_predecessors=True
            )

        blocked = self._centroid_out_pairs
        if len(self._plain_rows):
            plain = np.where(blocked, np.inf, pair_costs) if blocked.any() else pair_costs
            for row in range(num_rows):
                run(plain[row], row, self._plain_rows)
        for query_row in self._centroid_rows:
            own = self._pair_tails == self._sources[query_row]
            opened = np.where(blocked & ~own, np.inf, pair_costs)
            for row in range(num_rows):
                run(opened[row], row, np.array([query_row]))
        return dist, pred, pair_edges

    def _stack(self, num_rows: int) -> _StackIndex:
        """The flat index arrays of ``num_rows`` stacked cost rows (cached)."""
        stack = self._stacks.get(num_rows)
        if stack is None:
            rows = np.repeat(np.arange(num_rows), len(self.commodities))
            query_rows = rows * len(self._sources) + np.tile(self._commodity_rows, num_rows)
            starts = query_rows * self._num_nodes
            sinks = np.tile(self._commodity_sinks, num_rows)
            stack = _StackIndex(
                pair_offsets=rows * len(self._pair_keys),
                starts=starts,
                sinks=sinks,
                sink_entries=starts + sinks,
                sources=np.tile(self._commodity_sources, num_rows),
            )
            self._stacks[num_rows] = stack
        return stack

    def _sink_distances(self, dist: np.ndarray) -> np.ndarray:
        """Every row's commodity distances, ``(R, commodities)``."""
        entries = self._stack(len(dist)).sink_entries
        return dist.reshape(-1)[entries].reshape(len(dist), -1)

    def _require_reachable(self, sink_distances: np.ndarray) -> None:
        unreachable = ~np.isfinite(sink_distances[:, self._grouped])
        if unreachable.any():
            row, position = np.argwhere(unreachable)[0]
            commodity = self.commodities[int(self._grouped[position])]
            raise ValueError(
                f"no path from {commodity.source!r} to {commodity.sink!r} in cost row {row}"
            )

    def _walk(self, pred: np.ndarray, pair_edges: np.ndarray) -> np.ndarray:
        """Trace every row's every commodity path back from its sink at once.

        Returns an ``(steps, R * commodities)`` matrix of oracle edge indices,
        row-major over (row, commodity), sink-first, padded with ``-1`` once
        a path reaches its source.
        """
        stack = self._stack(len(pred))
        flat_pred = pred.reshape(-1)
        node = stack.sinks.copy()
        live = np.flatnonzero(node != stack.sources)
        steps: List[np.ndarray] = []
        while len(live):
            heads = node[live]
            tails = flat_pred[stack.starts[live] + heads]
            step = np.full(len(node), -1, dtype=np.int64)
            pairs = np.searchsorted(self._pair_keys, tails * self._num_nodes + heads)
            step[live] = pair_edges[stack.pair_offsets[live] + pairs]
            steps.append(step)
            node[live] = tails
            live = live[tails != stack.sources[live]]
        return np.array(steps, dtype=np.int64).reshape(len(steps), len(node))

    def shortest_commodity_paths(self, costs: np.ndarray) -> List[Path]:
        """Return the cheapest paths under one cost vector or a stack of them.

        For ``(E,)`` costs this is one cheapest path per commodity, in
        commodity order.  For ``(R, E)`` costs it is every distinct path the
        rows' queries trace, in row-major first-appearance order: exactly
        the paths, and the order, that :meth:`ActivePathSet.add_paths
        <repro.largescale.columns.ActivePathSet.add_paths>` keeps from R
        one-row queries.
        """
        costs = self._check_costs(costs).reshape(-1, self.num_edges)
        dist, pred, pair_edges = self._query(costs)
        self._require_reachable(self._sink_distances(dist))
        walk = self._walk(pred, pair_edges)
        # A row's path repeats when an earlier row traced the same edges for
        # its commodity; only first appearances become paths.
        columns = walk.reshape(len(walk), len(costs), len(self.commodities))
        repeated = np.zeros(columns.shape[1:], dtype=bool)
        for row in range(1, len(costs)):
            same = columns[:, :row] == columns[:, row : row + 1]
            repeated[row] = same.all(axis=0).any(axis=0)
        firsts = np.flatnonzero(~repeated.reshape(-1))
        walk = walk[:, firsts]
        lengths = np.count_nonzero(walk >= 0, axis=0).tolist()
        commodities = (firsts % columns.shape[2]).tolist()
        edges = self.edges
        return [
            Path(tuple([edges[e] for e in column[:length][::-1]]), commodity_index)
            for column, length, commodity_index in zip(walk.T.tolist(), lengths, commodities)
        ]

    def commodity_costs(self, costs: np.ndarray) -> np.ndarray:
        """Return each commodity's shortest-path cost under ``costs``.

        The per-OD column of the network report: one query, no path
        tracing.  ``(E,)`` costs give ``(commodities,)`` and ``(R, E)``
        costs ``(R, commodities)``; unreachable sinks get ``inf``.
        """
        costs = self._check_costs(costs)
        dist, _pred, _pair_edges = self._query(costs.reshape(-1, self.num_edges))
        return self._sink_distances(dist).reshape(costs.shape[:-1] + (-1,))

    def all_or_nothing(
        self, costs: np.ndarray, demands: Optional[np.ndarray] = None
    ) -> AllOrNothingLoad:
        """Load every commodity's demand onto its cheapest path.

        ``costs`` is one ``(E,)`` vector and ``demands`` defaults to the
        commodity demands; the result's ``edge_flows`` live on the oracle's
        edge order and ``sptt`` is the demand-weighted shortest-path travel
        time.  Both sums run over the commodities grouped by source, so
        each total accumulates in one fixed order.
        """
        costs = self._check_costs(costs)
        if costs.ndim != 1:
            raise ValueError(f"all_or_nothing loads one (E,) cost vector, got shape {costs.shape}")
        if demands is None:
            demands = self._grouped_demands
        else:
            demands = np.asarray(demands, dtype=float)[self._grouped]
        dist, pred, pair_edges = self._query(costs[None])
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
        terms = sink_distances[0, self._grouped] * demands
        sptt = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
        return AllOrNothingLoad(edge_flows=flows, sptt=sptt)
