"""The Wardrop network: graph, latency functions and commodities.

A :class:`WardropNetwork` bundles everything that defines an instance of the
routing game of Section 2.1 of the paper:

* a directed finite multigraph ``G = (V, E)`` (a ``networkx.MultiDiGraph``),
* a latency function ``l_e`` per edge,
* a list of commodities ``(s_i, t_i, r_i)`` with ``sum_i r_i = 1``,
* the enumerated path sets ``P_i`` and the network constants used by the
  theory: the maximum path length ``D``, the maximum latency-slope ``beta``
  and the maximum path latency ``l_max``.

Edge flows and path latencies are the two products with the CSR edge--path
incidence operator of :mod:`repro.largescale.incidence`; every evaluator
takes one ``(P,)``/``(E,)`` row or a ``(B, ...)`` batch of rows.

The network object is immutable after construction and is shared by flow
vectors, the potential, the equilibrium solvers and the rerouting simulator.
"""

from __future__ import annotations

import copy
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from ..largescale.incidence import EdgeIncidence, build_incidence
from .commodity import Commodity, demands_are_normalised, normalise_demands
from .latency import EdgeLatencyTable, LatencyFunction
from .paths import EdgeKey, Path, PathSet, build_path_set

LATENCY_ATTR = "latency"


class WardropNetwork:
    """An instance of the Wardrop routing game.

    Parameters
    ----------
    graph:
        A directed multigraph whose edges carry a ``latency`` attribute
        holding a :class:`~repro.wardrop.latency.LatencyFunction`.
    commodities:
        The origin--destination pairs with their demands.
    normalise:
        If ``True`` (default) the demands are rescaled to sum to one, which
        is the normalisation used throughout the paper.  If ``False`` the
        demands must already be normalised.
    max_paths:
        Safety bound on the number of enumerated paths per commodity.
    paths:
        Optional prebuilt :class:`~repro.wardrop.paths.PathSet`.  When given,
        no path enumeration runs at all -- this is how the large-network
        layer builds *restricted* networks over column-generated path sets
        on graphs whose full path sets are astronomically large.  The paths
        must be valid simple paths of ``graph`` connecting each commodity's
        endpoints, in commodity order.
    validate_paths:
        When a prebuilt ``paths`` set is supplied, ``False`` skips the
        per-path endpoint/edge validation scan.  Column generation uses this
        on growth rebuilds: the extended set differs from an already
        validated one only by oracle-traced paths, which are graph paths by
        construction, so re-scanning the whole set per growth event would be
        the dominant rebuild cost for nothing.
    """

    def __init__(
        self,
        graph: nx.MultiDiGraph,
        commodities: Sequence[Commodity],
        normalise: bool = True,
        max_paths: int = 10_000,
        paths: Optional[PathSet] = None,
        validate_paths: bool = True,
    ):
        if not commodities:
            raise ValueError("a Wardrop instance needs at least one commodity")
        if normalise:
            commodities = normalise_demands(commodities)
        elif not demands_are_normalised(commodities):
            raise ValueError("demands must sum to one (or pass normalise=True)")
        self.graph = graph
        self.commodities: List[Commodity] = list(commodities)
        self._check_latencies()
        if paths is None:
            paths = build_path_set(graph, self.commodities, max_paths=max_paths)
        elif validate_paths:
            self._check_prebuilt_paths(paths)
        self.paths: PathSet = paths
        self._edges: List[EdgeKey] = self.paths.edges()
        self._edge_index: Dict[EdgeKey, int] = {edge: i for i, edge in enumerate(self._edges)}
        # Incidence matrix A[e, p] = 1 if edge e lies on path p, in CSR form.
        self._inc: EdgeIncidence = build_incidence(self.paths, self._edges)
        self._commodity_demands = np.array([commodity.demand for commodity in self.commodities])
        self._demands = self._commodity_demands[self.paths.blocks.commodity]
        # Per-edge latency replacements of lightweight copies made by
        # `with_latencies`; empty on a directly constructed network.
        self._latency_overrides: Dict[EdgeKey, LatencyFunction] = {}
        # The on-path latency table, built on first use.
        self._table: Optional[EdgeLatencyTable] = None

    # Construction helpers -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable, LatencyFunction]],
        commodities: Sequence[Commodity],
        normalise: bool = True,
        max_paths: int = 10_000,
    ) -> "WardropNetwork":
        """Build a network from ``(u, v, latency)`` triples.

        Multiple triples with the same endpoints create parallel edges, as in
        the paper's two-link oscillation instance.
        """
        graph = nx.MultiDiGraph()
        for u, v, latency in edges:
            graph.add_edge(u, v, **{LATENCY_ATTR: latency})
        return cls(graph, commodities, normalise=normalise, max_paths=max_paths)

    def _check_latencies(self) -> None:
        for u, v, key, data in self.graph.edges(keys=True, data=True):
            latency = data.get(LATENCY_ATTR)
            if not isinstance(latency, LatencyFunction):
                raise ValueError(
                    f"edge ({u!r}, {v!r}, {key!r}) has no LatencyFunction "
                    f"in its '{LATENCY_ATTR}' attribute"
                )

    def _check_prebuilt_paths(self, paths: PathSet) -> None:
        """Validate a caller-supplied path set against graph and commodities."""
        if paths.num_commodities != len(self.commodities):
            raise ValueError(
                f"path set covers {paths.num_commodities} commodities, "
                f"instance has {len(self.commodities)}"
            )
        for index, commodity in enumerate(self.commodities):
            commodity_paths = paths.commodity_paths(index)
            if not commodity_paths:
                raise ValueError(f"commodity {index} has no path in the path set")
            for path in commodity_paths:
                if path.source != commodity.source or path.sink != commodity.sink:
                    raise ValueError(
                        f"path {path.describe()} does not connect commodity {index} "
                        f"({commodity.source!r}->{commodity.sink!r})"
                    )
                for u, v, key in path.edges:
                    if not self.graph.has_edge(u, v, key):
                        raise ValueError(
                            f"path edge ({u!r}, {v!r}, {key!r}) is not in the graph"
                        )

    # Basic structure -------------------------------------------------------

    @property
    def edges(self) -> List[EdgeKey]:
        """The edges that lie on at least one path, in canonical order."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    @property
    def incidence(self) -> np.ndarray:
        """The dense edge-path incidence matrix (edges x paths), read-only.

        Materialised (and cached) on demand; use :attr:`incidence_operator`
        to stay in ``O(nnz)``.
        """
        return self._inc.dense()

    @property
    def incidence_operator(self) -> EdgeIncidence:
        """The CSR incidence operator behind all evaluations."""
        return self._inc

    @property
    def path_demands(self) -> np.ndarray:
        """Vector giving, per path, the demand of its commodity."""
        return self._demands

    @property
    def commodity_demands(self) -> np.ndarray:
        """Vector giving, per commodity, its demand ``r_i``."""
        return self._commodity_demands

    def edge_index(self, edge: EdgeKey) -> int:
        return self._edge_index[edge]

    def latency_function(self, edge: EdgeKey) -> LatencyFunction:
        """Return the latency function attached to ``edge``."""
        override = self._latency_overrides.get(edge)
        if override is not None:
            return override
        u, v, key = edge
        return self.graph[u][v][key][LATENCY_ATTR]

    def with_latencies(
        self, overrides: Mapping[Union[EdgeKey, int], LatencyFunction]
    ) -> "WardropNetwork":
        """Return a lightweight copy with some edge latencies replaced.

        The copy shares the graph, path set, incidence matrix and commodities
        of this network -- nothing is re-enumerated and no ``networkx`` graph
        is built -- only the latency lookup of the overridden edges changes.
        Keys may be edge triples ``(u, v, key)`` or integer positions into
        :attr:`edges`; off-path graph edges may be overridden too (they do
        not enter path evaluation, but oracle-driven consumers -- column
        generation, the edge-flow solver, scenario incidents on closed
        detour links -- read them through :meth:`latency_function`).
        Replacement functions are spot-checked with
        :meth:`~repro.wardrop.latency.LatencyFunction.validate`.

        This is the constructor behind
        :meth:`~repro.wardrop.family.NetworkFamily.from_coefficients`, which
        synthesises whole coefficient-sweep families without rebuilding
        ``B`` graphs.
        """
        mapping: Dict[EdgeKey, LatencyFunction] = {}
        for key, function in overrides.items():
            edge = self._edges[key] if isinstance(key, (int, np.integer)) else key
            if edge not in self._edge_index and not self.graph.has_edge(*edge):
                raise ValueError(f"unknown edge {edge!r}")
            if not isinstance(function, LatencyFunction):
                raise ValueError(f"override for edge {edge!r} is not a LatencyFunction")
            function.validate()
            mapping[edge] = function
        clone = copy.copy(self)
        clone._latency_overrides = {**self._latency_overrides, **mapping}
        clone._table = None
        return clone

    def latency_table(self) -> EdgeLatencyTable:
        """Return the :class:`EdgeLatencyTable` of :attr:`edges`, built on first use."""
        if self._table is None:
            self._table = EdgeLatencyTable([self.latency_function(edge) for edge in self._edges])
        return self._table

    # Network constants used by the theory ----------------------------------

    def max_path_length(self) -> int:
        """Return ``D``, the maximum number of edges on any path."""
        return self.paths.max_path_length()

    def max_slope(self) -> float:
        """Return ``beta``, the maximum slope of any edge latency on [0, 1]."""
        return max(self.latency_function(edge).max_slope(0.0, 1.0) for edge in self._edges)

    def max_latency(self) -> float:
        """Return ``l_max``, an upper bound on the latency of any path.

        Following the paper, ``l_max = max_P sum_{e in P} l_e(1)`` -- the
        latency a path would have if the entire unit demand were routed over
        every one of its edges.
        """
        full = self.latency_table().values(np.ones(self.num_edges))
        best = 0.0
        for path in self.paths:
            best = max(best, sum(full[self._edge_index[edge]] for edge in path.edges))
        return float(best)

    # Latency evaluation -----------------------------------------------------
    #
    # Row b of a stacked result equals the one-row evaluation of row b bit
    # for bit: the batched engines and the trajectory analyses rely on it.

    def edge_flows(self, path_flows: np.ndarray) -> np.ndarray:
        """Aggregate path flows ``(P,)``/``(..., P)`` to edge flows ``f_e = sum_{P ∋ e} f_P``."""
        return self._inc.edge_flows(path_flows)

    def edge_latencies(self, edge_flows: np.ndarray) -> np.ndarray:
        """Evaluate every edge latency at edge flows ``(E,)`` or ``(..., E)``."""
        return self.latency_table().values(edge_flows)

    def edge_latency_derivatives(self, edge_flows: np.ndarray) -> np.ndarray:
        """Evaluate every edge latency derivative at the given edge flows."""
        return self.latency_table().derivatives(edge_flows)

    def path_latencies(self, path_flows: np.ndarray) -> np.ndarray:
        """Return ``l_P(f)`` for every path of ``(P,)`` or ``(..., P)`` flows."""
        edge_latencies = self.edge_latencies(self.edge_flows(path_flows))
        return self._inc.path_totals(edge_latencies)

    def path_latencies_from_edge_latencies(self, edge_latencies: np.ndarray) -> np.ndarray:
        """Return path latencies given precomputed ``(E,)``/``(B, E)`` edge latencies.

        Used by the bulletin-board model, where path latencies must be
        computed from the *posted* (stale) edge latencies rather than the
        live ones.
        """
        return self._inc.path_totals(edge_latencies)

    # Descriptions ----------------------------------------------------------

    def commodity_label(self, index: int) -> str:
        return self.commodities[index].label(index)

    def describe(self) -> str:
        """Return a short multi-line description of the instance."""
        lines = [
            f"WardropNetwork: {self.graph.number_of_nodes()} nodes, "
            f"{self.graph.number_of_edges()} edges, {self.num_commodities} commodities, "
            f"{self.num_paths} paths",
            f"  D (max path length) = {self.max_path_length()}",
            f"  beta (max slope)    = {self.max_slope():.6g}",
            f"  l_max               = {self.max_latency():.6g}",
        ]
        for index, commodity in enumerate(self.commodities):
            paths = self.paths.commodity_paths(index)
            lines.append(
                f"  {commodity.label(index)}: {commodity.source!r} -> {commodity.sink!r}, "
                f"demand {commodity.demand:.4g}, {len(paths)} paths"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"WardropNetwork(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.graph.number_of_edges()}, commodities={self.num_commodities}, "
            f"paths={self.num_paths})"
        )
