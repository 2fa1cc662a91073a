"""Families of Wardrop networks sharing one topology.

The paper's headline sweeps run the same dynamics over *families* of
instances -- Pigou, Braess or parallel-link networks whose latency
coefficients vary while the graph, path sets and commodities stay fixed.  A
:class:`NetworkFamily` stacks ``B`` such networks so the batched simulation
engine can integrate one replica per member as a single ``(B, P)`` ensemble:
geometry (edge/path incidence, projections) is shared through the base
network, while latency evaluation uses one
:class:`~repro.wardrop.latency.EdgeLatencyTable` over the ``(B, E)`` grid of
member latency functions, so row ``b`` is priced with member ``b``'s
coefficients in one array call per group of same-class cells.

``topology_signature`` is the grouping key used by the experiment runner:
cases whose networks share a signature can always be fused into one family
batch (the constructor re-validates, so a signature collision can never
produce silently wrong results).
"""

from __future__ import annotations

import copy
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .latency import EdgeLatencyTable
from .network import WardropNetwork


def topology_signature(network: WardropNetwork) -> Tuple:
    """Return a hashable key identifying a network's batching class.

    Two networks with equal signatures have identical node/edge structure,
    path sets and commodities (sources, sinks and demands) and therefore
    identical incidence matrices -- only their latency functions may differ,
    which is exactly the degree of freedom :class:`NetworkFamily` stacks.
    """
    return (
        tuple(network.paths.describe()),
        tuple(network.edges),
        tuple(
            (commodity.source, commodity.sink, float(commodity.demand))
            for commodity in network.commodities
        ),
    )


class NetworkFamily:
    """``B`` same-topology networks with stacked latency coefficients.

    Parameters
    ----------
    networks:
        The family members.  All must share the topology of the first
        (validated via :func:`topology_signature`, whose path descriptions
        and edge order determine the incidence matrix); latency functions
        may differ per member.
    validate:
        Set to ``False`` to skip the ``O(paths)`` topology check when the
        members are same-structure by construction -- e.g. the
        :meth:`~repro.wardrop.network.WardropNetwork.with_latencies` clones,
        which share the base network's path-set and incidence objects
        outright.

    The family prices batches like a single :class:`WardropNetwork`
    (:meth:`edge_latencies_batch`, :meth:`path_latencies_batch`), with row
    ``b`` evaluated against member ``b``'s latency functions; the
    topology-only products (edge flows, path totals of posted latencies) are
    the base network's.  The optional ``rows`` argument evaluates a subset
    of members -- the batched engine passes the rows still running (not
    converged or horizon-exhausted).
    """

    def __init__(self, networks: Sequence[WardropNetwork], validate: bool = True):
        networks = list(networks)
        if not networks:
            raise ValueError("a network family needs at least one member")
        base = networks[0]
        if validate:
            signature = topology_signature(base)
            for index, network in enumerate(networks[1:], start=1):
                if network is base:
                    continue
                if topology_signature(network) != signature:
                    raise ValueError(
                        f"family member {index} has a different topology than member 0"
                    )
        self._networks: Union[List[WardropNetwork], Callable[[], List[WardropNetwork]]] = networks
        self._size = len(networks)
        self.base = base
        self._table: Optional[EdgeLatencyTable] = None
        self._modulation: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # Construction helpers -------------------------------------------------

    @classmethod
    def from_builder(
        cls,
        builder: Callable[..., WardropNetwork],
        parameter_grid: Sequence[Mapping[str, object]],
    ) -> "NetworkFamily":
        """Build a family by calling ``builder(**params)`` per grid entry.

        E.g. ``NetworkFamily.from_builder(pigou_network,
        [{"degree": 1, "constant": c} for c in constants])`` builds a Pigou
        coefficient sweep.
        """
        return cls([builder(**dict(params)) for params in parameter_grid])

    @classmethod
    def from_coefficients(
        cls,
        instance: WardropNetwork,
        grid: Sequence[Mapping[object, object]],
    ) -> "NetworkFamily":
        """Synthesise a family from one instance and a coefficient grid.

        ``grid`` holds one mapping per member, each sending edges (triples
        ``(u, v, key)`` or integer positions into ``instance.edges``) to the
        member's replacement
        :class:`~repro.wardrop.latency.LatencyFunction`; edges a member does
        not mention keep the instance's function.  Members are lightweight
        :meth:`~repro.wardrop.network.WardropNetwork.with_latencies` copies
        sharing the instance's graph, path set and incidence matrix, so --
        unlike :meth:`from_builder` -- no ``networkx`` graph is built and no
        path enumeration runs per member: family setup is O(edges) per row
        instead of O(graph).  Its latency table evaluates exactly like the
        one of a graph-built family of the same coefficients.
        """
        if not grid:
            raise ValueError("a coefficient grid needs at least one entry")
        return cls([instance.with_latencies(overrides) for overrides in grid])

    @classmethod
    def replicate(cls, network: WardropNetwork, count: int) -> "NetworkFamily":
        """Return a family of ``count`` references to one shared network.

        The members are one object, so the topology check is skipped.
        """
        if count < 1:
            raise ValueError("a family needs at least one member")
        return cls([network] * count, validate=False)

    def modulated(
        self,
        gain: np.ndarray,
        stretch: np.ndarray,
        offset: np.ndarray,
        members: Callable[[], List[WardropNetwork]],
    ) -> "NetworkFamily":
        """Return this family with every cell priced ``gain * l(stretch * x) + offset``.

        ``gain``, ``stretch`` and ``offset`` are ``(B, E)`` arrays over
        (member, edge) -- the arithmetic of
        :class:`~repro.wardrop.latency.ModulatedLatency`, applied around this
        family's latency table, which is shared rather than rebuilt.
        ``members`` returns the effective member networks; it is only called
        if they are asked for.
        """
        family = copy.copy(self)
        family._table = self.latency_table()
        family._modulation = (gain, stretch, offset)
        family._networks = members
        return family

    # Structure ------------------------------------------------------------

    @property
    def networks(self) -> List[WardropNetwork]:
        if callable(self._networks):
            self._networks = list(self._networks())
        return self._networks

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self.size

    def member(self, row: int) -> WardropNetwork:
        """Return family member ``row``'s network."""
        return self.networks[row]

    @property
    def num_paths(self) -> int:
        return self.base.num_paths

    @property
    def num_edges(self) -> int:
        return self.base.num_edges

    @property
    def num_commodities(self) -> int:
        return self.base.num_commodities

    def latency_table(self) -> EdgeLatencyTable:
        """Return the members' latency table, built on first use.

        Members that are all one network share that network's own table,
        which applies to every row.
        """
        if self._table is None:
            networks = self.networks
            if all(network is networks[0] for network in networks):
                self._table = networks[0].latency_table()
            else:
                self._table = EdgeLatencyTable(
                    [
                        [network.latency_function(edge) for edge in self.base.edges]
                        for network in networks
                    ]
                )
        return self._table

    # Theory constants over the family --------------------------------------

    def max_latency(self) -> float:
        """Return ``max_b l_max(network_b)``, a family-wide latency bound."""
        return max(network.max_latency() for network in self.networks)

    def max_slope(self) -> float:
        """Return ``max_b beta(network_b)``, a family-wide slope bound."""
        return max(network.max_slope() for network in self.networks)

    # Batched evaluation ----------------------------------------------------

    def edge_latencies_batch(
        self, edge_flows: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Evaluate members' edge latencies on ``(R, E)`` edge flows.

        Row ``i`` is evaluated with member ``rows[i]``'s latency functions
        (``rows`` defaults to ``0..B-1``, requiring ``R == B``).
        """
        table = self.latency_table()
        if self._modulation is None:
            return table.values(edge_flows, rows)
        gain, stretch, offset = (
            part if rows is None else part[rows] for part in self._modulation
        )
        return gain * table.values(stretch * np.asarray(edge_flows, dtype=float), rows) + offset

    def path_latencies_batch(
        self, path_flows: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Return ``(R, P)`` path latencies of ``(R, P)`` flows, per member row."""
        edge_latencies = self.edge_latencies_batch(self.base.edge_flows(path_flows), rows)
        return self.base.path_latencies_from_edge_latencies(edge_latencies)

    def __repr__(self) -> str:
        return (
            f"NetworkFamily(size={self.size}, paths={self.num_paths}, "
            f"edges={self.num_edges})"
        )
