"""Flow vectors of the Wardrop model.

A flow vector ``f = (f_P)_{P in P}`` is *feasible* if every component is
non-negative and, for every commodity ``i``, the path flows of the commodity
sum to its demand ``r_i``.  In the population interpretation ``f_P`` is the
fraction of agents currently routing over path ``P``.

:class:`FlowVector` wraps a numpy array together with the network it belongs
to and provides the derived quantities used throughout the paper:

* edge flows ``f_e`` and live edge/path latencies,
* the commodity average latency ``L_i`` and the overall average latency
  ``L`` (Section 2.1),
* feasibility checks and projections,
* standard starting distributions (uniform split, all flow on one path,
  random feasible flows).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from .latency import ordered_sum
from .network import WardropNetwork
from .paths import Path


class FlowVector:
    """A feasible path-flow vector on a :class:`WardropNetwork`.

    The underlying array is copied at construction and never mutated; all
    operations return new vectors.  Use :meth:`values` for read access to a
    copy of the raw array.
    """

    def __init__(self, network: WardropNetwork, path_flows: Sequence[float], validate: bool = True):
        self.network = network
        self._flows = np.asarray(path_flows, dtype=float).copy()
        if self._flows.shape != (network.num_paths,):
            raise ValueError(
                f"flow vector has shape {self._flows.shape}, expected ({network.num_paths},)"
            )
        if validate:
            self.check_feasible()

    # Constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, network: WardropNetwork) -> "FlowVector":
        """Split every commodity's demand equally over its paths."""
        blocks = network.paths.blocks
        return cls(network, network.path_demands / blocks.sizes[blocks.commodity])

    @classmethod
    def single_path(cls, network: WardropNetwork, path_indices: Dict[int, int]) -> "FlowVector":
        """Put each commodity's entire demand on one chosen path.

        ``path_indices`` maps commodity index to the *local* index of the
        chosen path within that commodity's path list.
        """
        flows = np.zeros(network.num_paths)
        for i, commodity in enumerate(network.commodities):
            start, stop = network.paths.commodity_slice(i)
            local = path_indices.get(i, 0)
            if not 0 <= local < stop - start:
                raise ValueError(f"commodity {i} has no local path index {local}")
            flows[start + local] = commodity.demand
        return cls(network, flows)

    @classmethod
    def from_dict(cls, network: WardropNetwork, flows_by_path: Dict[Path, float]) -> "FlowVector":
        """Build a flow vector from an explicit ``{path: flow}`` mapping."""
        flows = np.zeros(network.num_paths)
        for path, value in flows_by_path.items():
            flows[network.paths.index_of(path)] = value
        return cls(network, flows)

    @classmethod
    def random(cls, network: WardropNetwork, rng: Optional[np.random.Generator] = None) -> "FlowVector":
        """Sample a feasible flow with Dirichlet(1,...,1) commodity splits."""
        rng = rng or np.random.default_rng()
        flows = np.zeros(network.num_paths)
        for i, commodity in enumerate(network.commodities):
            indices = list(network.paths.commodity_indices(i))
            split = rng.dirichlet(np.ones(len(indices)))
            flows[indices] = commodity.demand * split
        return cls(network, flows)

    # Feasibility ------------------------------------------------------------

    def check_feasible(self, tolerance: float = 1e-7) -> None:
        """Raise ``ValueError`` if the flow is infeasible."""
        # ``x < -tolerance`` is False for NaN, so non-finite components are
        # rejected explicitly before the sign and demand checks.
        finite = np.isfinite(self._flows)
        if not finite.all():
            index = int(np.argmin(finite))
            raise ValueError(
                f"flow vector component {index} is not finite: {self._flows[index]}"
            )
        if np.any(self._flows < -tolerance):
            worst = float(self._flows.min())
            raise ValueError(f"flow vector has negative component {worst}")
        routed = self.network.paths.blocks.gather(self._flows).sum(axis=-1)
        demands = self.network.commodity_demands
        off = np.flatnonzero(np.abs(routed - demands) > tolerance)
        if len(off):
            i = int(off[0])
            raise ValueError(f"commodity {i} routes {routed[i]}, demand is {demands[i]}")

    def is_feasible(self, tolerance: float = 1e-7) -> bool:
        """Return ``True`` if the flow satisfies non-negativity and demands."""
        try:
            self.check_feasible(tolerance)
        except ValueError:
            return False
        return True

    def projected(self) -> "FlowVector":
        """Return the closest simple repair of small numerical infeasibility.

        Negative components are clipped to zero and each commodity block is
        rescaled to its demand (the one-row case of :meth:`project_batch`).
        Intended to absorb integrator round-off, not to project arbitrary
        vectors.
        """
        repaired = FlowVector.project_batch(self.network, self._flows[None])[0]
        return FlowVector(self.network, repaired)

    @staticmethod
    def stack(vectors: Sequence["FlowVector"]) -> np.ndarray:
        """Stack flow vectors into a ``(B, P)`` array for the batched engine.

        The vectors may live on different same-topology networks (a family
        sweep); only their lengths must agree.  Network membership is the
        caller's contract -- the batched engine validates rows against its
        network or family members.
        """
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot stack an empty list of flow vectors")
        length = len(vectors[0])
        if any(len(vector) != length for vector in vectors):
            raise ValueError("cannot stack flow vectors of different lengths")
        return np.stack([vector.values() for vector in vectors])

    @staticmethod
    def project_batch(network: WardropNetwork, path_flows: np.ndarray) -> np.ndarray:
        """Clip-and-rescale a ``(B, P)`` batch of raw flow arrays, row by row.

        Negative components are clipped to zero and every commodity block is
        rescaled to its demand; a commodity whose routed mass is at most the
        smallest normal float (subnormal totals would overflow
        ``demand / routed`` to inf, and ``0 * inf`` to NaN) is split
        uniformly instead.  Works on the padded commodity blocks, so each
        block total is one reduction over ``K`` that does not depend on the
        batch; returns a new array.
        """
        blocks = network.paths.blocks
        flows = blocks.gather(np.clip(np.asarray(path_flows, dtype=float), 0.0, None))
        routed = flows.sum(axis=-1)
        demands = network.commodity_demands
        starved = routed <= np.finfo(float).tiny
        scale = demands / np.where(starved, 1.0, routed)
        split = np.where(blocks.valid, (demands / blocks.sizes)[:, None], 0.0)
        return blocks.scatter(np.where(starved[..., None], split, flows * scale[..., None]))

    # Raw access ---------------------------------------------------------------

    def values(self) -> np.ndarray:
        """Return a copy of the raw path-flow array."""
        return self._flows.copy()

    def __getitem__(self, path_index: int) -> float:
        return float(self._flows[path_index])

    def flow_on(self, path: Path) -> float:
        """Return the flow on a specific path object."""
        return float(self._flows[self.network.paths.index_of(path)])

    def __len__(self) -> int:
        return len(self._flows)

    # Derived quantities --------------------------------------------------------

    def edge_flows(self) -> np.ndarray:
        """Return the edge-flow vector ``f_e``."""
        return self.network.edge_flows(self._flows)

    def edge_latencies(self) -> np.ndarray:
        """Return the live edge latencies ``l_e(f_e)``."""
        return self.network.edge_latencies(self.edge_flows())

    def path_latencies(self) -> np.ndarray:
        """Return the live path latencies ``l_P(f)``."""
        return self.network.path_latencies(self._flows)

    def commodity_min_latency(self, commodity_index: int) -> float:
        """Return ``l^i_min``, the minimum path latency of a commodity."""
        indices = list(self.network.paths.commodity_indices(commodity_index))
        return float(self.path_latencies()[indices].min())

    def commodity_average_latency(self, commodity_index: int) -> float:
        """Return ``L_i = sum_P (f_P / r_i) * l_P`` for the commodity."""
        indices = list(self.network.paths.commodity_indices(commodity_index))
        latencies = self.path_latencies()[indices]
        flows = self._flows[indices]
        demand = self.network.commodities[commodity_index].demand
        return float(np.dot(flows, latencies) / demand)

    def average_latency(self) -> float:
        """Return the overall average latency ``L = sum_P f_P * l_P``."""
        return float(average_latencies(self.network, self._flows))

    def max_used_latency(self, threshold: float = 1e-9) -> float:
        """Return the maximum latency over paths carrying positive flow."""
        return float(max_used_latencies(self.network, self._flows, threshold))

    # Arithmetic -----------------------------------------------------------------

    def with_values(self, path_flows: np.ndarray, validate: bool = True) -> "FlowVector":
        """Return a new flow vector over the same network."""
        return FlowVector(self.network, path_flows, validate=validate)

    def blend(self, other: "FlowVector", weight: float) -> "FlowVector":
        """Return ``(1 - weight) * self + weight * other`` (a feasible convex mix)."""
        if other.network is not self.network:
            raise ValueError("cannot blend flows on different networks")
        if not 0.0 <= weight <= 1.0:
            raise ValueError("blend weight must lie in [0, 1]")
        return FlowVector(
            self.network, (1.0 - weight) * self._flows + weight * other._flows
        )

    def distance_to(self, other: "FlowVector") -> float:
        """Return the L1 distance between two flow vectors."""
        if other.network is not self.network:
            raise ValueError("cannot compare flows on different networks")
        return float(np.abs(self._flows - other._flows).sum())

    def __repr__(self) -> str:
        entries = ", ".join(f"{x:.4g}" for x in self._flows)
        return f"FlowVector([{entries}])"


def average_latencies(network: WardropNetwork, flows: np.ndarray) -> np.ndarray:
    """Return ``L = sum_P f_P * l_P`` of ``(..., P)`` flows per row, added in path order."""
    flows = np.asarray(flows, dtype=float)
    return ordered_sum(flows * network.path_latencies(flows))


def max_used_latencies(
    network: WardropNetwork, flows: np.ndarray, threshold: float = 1e-9
) -> np.ndarray:
    """Return the largest latency over paths carrying more than ``threshold`` (0 if none)."""
    flows = np.asarray(flows, dtype=float)
    used = flows > threshold
    worst = np.where(used, network.path_latencies(flows), -np.inf).max(axis=-1)
    return np.where(used.any(axis=-1), worst, 0.0)
