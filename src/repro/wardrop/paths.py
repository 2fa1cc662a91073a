"""Path enumeration and path-level bookkeeping.

The dynamics of the paper operate on *path flows*: ``f_P`` is the fraction of
agents using path ``P``, and the strategy space of commodity ``i`` is the set
``P_i`` of simple ``s_i``--``t_i`` paths.  This module provides

* :class:`Path` -- an immutable sequence of edge keys with pretty printing,
* enumeration of all simple paths of a commodity on a ``networkx`` multigraph,
* :class:`PathSet` -- the indexed union ``P = union_i P_i`` used by flow
  vectors, with fast lookup from path to commodity and to array positions,
* :class:`CommodityBlocks` -- the padded ``(C, K)`` commodity-block layout
  every per-commodity kernel (sampling, migration, the rate field,
  projection, the agent tables) computes on.

Enumeration is exponential in general; the instances used by the paper and by
the reproduction are small enough (parallel links, Braess, grids) that
explicit enumeration is the honest implementation of the model.  A
``max_paths`` guard protects against accidentally exploding instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .commodity import Commodity

EdgeKey = Tuple[Hashable, Hashable, Hashable]


@dataclass(frozen=True)
class Path:
    """A routing path represented as a tuple of multigraph edge keys.

    Each edge key is a ``(u, v, key)`` triple as used by
    ``networkx.MultiDiGraph``.  Paths are hashable so they can index
    dictionaries and flow vectors.
    """

    edges: Tuple[EdgeKey, ...]
    commodity_index: int

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a path must contain at least one edge")
        for (u, v, _), (u2, _v2, _) in zip(self.edges, self.edges[1:]):
            if v != u2:
                raise ValueError(f"path edges are not contiguous: {self.edges}")

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[EdgeKey]:
        return iter(self.edges)

    @property
    def source(self) -> Hashable:
        return self.edges[0][0]

    @property
    def sink(self) -> Hashable:
        return self.edges[-1][1]

    @property
    def nodes(self) -> Tuple[Hashable, ...]:
        """Return the node sequence visited by the path."""
        return (self.edges[0][0],) + tuple(edge[1] for edge in self.edges)

    def describe(self) -> str:
        """Return a compact human-readable description like ``s->a->t``."""
        return "->".join(str(node) for node in self.nodes)

    def __repr__(self) -> str:
        return f"Path({self.describe()}, commodity={self.commodity_index})"


def enumerate_commodity_paths(
    graph: nx.MultiDiGraph,
    commodity: Commodity,
    commodity_index: int,
    max_paths: int = 10_000,
) -> List[Path]:
    """Enumerate all simple source--sink paths of a commodity.

    Parallel edges are treated as distinct paths (as the paper's multigraph
    model requires: the two-link oscillation instance has two parallel edges
    between the same node pair).

    Raises ``ValueError`` if the commodity has no path at all or if the number
    of paths exceeds ``max_paths``.
    """
    paths: List[Path] = []
    if commodity.source not in graph or commodity.sink not in graph:
        raise ValueError(
            f"commodity endpoints {commodity.source!r}->{commodity.sink!r} missing from graph"
        )
    # networkx yields the same node path once per parallel edge on multigraphs;
    # de-duplicate node paths first and expand parallel edges ourselves.
    node_paths = []
    seen_node_paths = set()
    for node_path in nx.all_simple_paths(graph, commodity.source, commodity.sink):
        key = tuple(node_path)
        if key not in seen_node_paths:
            seen_node_paths.add(key)
            node_paths.append(key)
    for node_path in node_paths:
        for edge_path in _edge_paths(graph, node_path):
            paths.append(Path(tuple(edge_path), commodity_index))
            if len(paths) > max_paths:
                raise ValueError(
                    f"commodity {commodity_index} has more than {max_paths} paths; "
                    "refusing to enumerate"
                )
    if not paths:
        raise ValueError(
            f"commodity {commodity_index} ({commodity.source!r}->{commodity.sink!r}) "
            "has no path in the graph"
        )
    paths.sort(key=lambda path: (len(path), path.describe(), path.edges))
    return paths


def _edge_paths(
    graph: nx.MultiDiGraph, node_path: Sequence[Hashable]
) -> Iterator[List[EdgeKey]]:
    """Expand a node path into every combination of parallel edges along it."""
    hops: List[List[EdgeKey]] = []
    for u, v in zip(node_path, node_path[1:]):
        keys = list(graph[u][v].keys())
        hops.append([(u, v, key) for key in sorted(keys, key=str)])
    yield from _product_of(hops)


def _product_of(hops: List[List[EdgeKey]]) -> Iterator[List[EdgeKey]]:
    """Yield every selection of one edge per hop (cartesian product)."""
    if not hops:
        yield []
        return
    head, *tail = hops
    for edge in head:
        for rest in _product_of(tail):
            yield [edge] + rest


@dataclass(frozen=True)
class CommodityBlocks:
    """The padded commodity-block layout of a path set.

    Agents only sample paths of their own commodity, so every per-commodity
    quantity lives on ``C`` blocks of at most ``K`` paths.  ``index[c, j]``
    is the global path in slot ``j`` of commodity ``c`` (0 on padding),
    ``valid[c, j]`` marks the real slots, ``pairs[c, j, k]`` the ordered
    pairs of distinct real slots (where a path-to-path rate can be nonzero),
    ``commodity[p]``/``slot[p]`` locate global path ``p`` (``flat[p]`` in
    the flattened ``(C * K,)`` blocks), ``sizes[c]`` is ``|P_c|``, and
    ``uniform`` says every commodity has ``K`` paths (no padding).  Paths are contiguous per
    commodity, so the valid slots in row-major order are the global paths
    in order: :meth:`gather` and :meth:`scatter` are an indexed copy, and
    plain reshapes (views, no copy) when there is no padding.
    """

    index: np.ndarray
    valid: np.ndarray
    pairs: np.ndarray
    commodity: np.ndarray
    slot: np.ndarray
    flat: np.ndarray
    sizes: np.ndarray
    uniform: bool

    @classmethod
    def from_slices(cls, slices: Sequence[Tuple[int, int]]) -> "CommodityBlocks":
        sizes = np.array([stop - start for start, stop in slices], dtype=np.int64)
        starts = np.array([start for start, _ in slices], dtype=np.int64)
        width = int(sizes.max())
        slots = np.arange(width)
        valid = slots < sizes[:, None]
        commodity = np.repeat(np.arange(len(sizes)), sizes)
        slot = np.arange(len(commodity)) - starts[commodity]
        index = np.where(valid, starts[:, None] + slots, 0)
        pairs = valid[:, :, None] & valid[:, None, :] & ~np.eye(width, dtype=bool)
        flat = commodity * width + slot
        for array in (index, valid, pairs, commodity, slot, flat, sizes):
            array.setflags(write=False)
        return cls(index, valid, pairs, commodity, slot, flat, sizes, bool(valid.all()))

    @property
    def shape(self) -> Tuple[int, int]:
        """``(C, K)``: the number of commodities and the widest block."""
        return self.valid.shape

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Return ``(..., P)`` path values as zero-padded ``(..., C, K)`` blocks."""
        if self.uniform:
            return values.reshape(values.shape[:-1] + self.shape)
        blocks = np.zeros(values.shape[:-1] + (self.valid.size,), dtype=values.dtype)
        blocks[..., self.flat] = values
        return blocks.reshape(values.shape[:-1] + self.shape)

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """Return ``(..., C, K)`` blocks as ``(..., P)`` path values (the inverse)."""
        if self.uniform:
            return blocks.reshape(blocks.shape[:-2] + (len(self.commodity),))
        return np.take(blocks.reshape(blocks.shape[:-2] + (-1,)), self.flat, axis=-1)


class PathSet:
    """The indexed set of all paths ``P = union_i P_i`` of an instance.

    The set fixes a global ordering of the paths so that flow vectors can be
    stored as dense numpy arrays.  It also memoises the commodity partition
    and the edge membership needed to aggregate path flows to edge flows.
    """

    def __init__(self, paths_by_commodity: Sequence[Sequence[Path]]):
        self._by_commodity: List[List[Path]] = [list(paths) for paths in paths_by_commodity]
        self._all: List[Path] = [path for paths in self._by_commodity for path in paths]
        self._index: Dict[Path, int] = {path: i for i, path in enumerate(self._all)}
        if len(self._index) != len(self._all):
            raise ValueError("duplicate paths in path set")
        slices: List[Tuple[int, int]] = []
        start = 0
        for paths in self._by_commodity:
            slices.append((start, start + len(paths)))
            start += len(paths)
        self._commodity_slices: Tuple[Tuple[int, int], ...] = tuple(slices)
        self._membership: Optional[Dict[EdgeKey, np.ndarray]] = None
        self._blocks: Optional[CommodityBlocks] = None

    # Basic container protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._all)

    def __getitem__(self, index: int) -> Path:
        return self._all[index]

    def __contains__(self, path: Path) -> bool:
        return path in self._index

    # Lookup ---------------------------------------------------------------

    def index_of(self, path: Path) -> int:
        """Return the global array index of ``path``."""
        return self._index[path]

    @property
    def num_commodities(self) -> int:
        return len(self._by_commodity)

    def commodity_paths(self, commodity_index: int) -> List[Path]:
        """Return the list of paths ``P_i`` of a commodity."""
        return self._by_commodity[commodity_index]

    def commodity_slice(self, commodity_index: int) -> Tuple[int, int]:
        """Return the ``(start, stop)`` range of a commodity in the global order."""
        return self._commodity_slices[commodity_index]

    def commodity_slices(self) -> Tuple[Tuple[int, int], ...]:
        """Return every commodity's contiguous ``(start, stop)`` range, in order."""
        return self._commodity_slices

    def commodity_indices(self, commodity_index: int) -> range:
        start, stop = self._commodity_slices[commodity_index]
        return range(start, stop)

    @property
    def blocks(self) -> CommodityBlocks:
        """The padded commodity-block layout of this set, built once."""
        if self._blocks is None:
            self._blocks = CommodityBlocks.from_slices(self._commodity_slices)
        return self._blocks

    # Derived structure ---------------------------------------------------

    def max_path_length(self) -> int:
        """Return ``D``, the maximum number of edges on any path."""
        return max(len(path) for path in self._all)

    def edges(self) -> List[EdgeKey]:
        """Return the sorted list of edges that appear on at least one path."""
        return sorted(self.edge_membership(), key=str)

    def edge_membership(self) -> Dict[EdgeKey, np.ndarray]:
        """Return the edge -> path-index membership map, built once.

        One pass over all paths yields, per edge, the sorted array of global
        indices of the paths that traverse it.  This single structure backs
        :meth:`paths_through`, :meth:`edges` and the CSR edge--path
        incidence operator of the network, so the membership is
        computed exactly once per path set instead of once per query.
        """
        if self._membership is None:
            collected: Dict[EdgeKey, List[int]] = {}
            for index, path in enumerate(self._all):
                for edge in set(path.edges):
                    collected.setdefault(edge, []).append(index)
            self._membership = {
                edge: np.asarray(indices, dtype=np.int64)
                for edge, indices in collected.items()
            }
        return self._membership

    # Growth ---------------------------------------------------------------

    def extended(self, added: Sequence[Path]) -> Tuple["PathSet", np.ndarray]:
        """Return ``(new_set, perm)`` with ``added`` appended per commodity.

        This is the incremental column append used by column generation:
        each new path joins the end of its commodity's block, so the global
        order stays commodity-contiguous and every old index ``i`` moves to
        ``perm[i]`` (``perm`` is strictly increasing).  The edge membership
        -- the expensive full-set scan backing the CSR incidence -- is
        carried over from this set when it has already been built: old index
        arrays are remapped through ``perm`` and only the *added* paths are
        scanned, so growing by k paths costs ``O(k * path length)`` plus the
        ``O(nnz)`` remap instead of a re-scan of the whole set.
        """
        added = list(added)
        if not added:
            return self, np.arange(len(self._all), dtype=np.int64)
        by_commodity = [list(paths) for paths in self._by_commodity]
        for path in added:
            if not 0 <= path.commodity_index < len(by_commodity):
                raise ValueError(
                    f"added path belongs to commodity {path.commodity_index}, "
                    f"set has {len(by_commodity)}"
                )
            by_commodity[path.commodity_index].append(path)
        new_set = PathSet(by_commodity)
        # Old index i of commodity c shifts by the number of paths added to
        # earlier commodities (its own commodity's additions come after it).
        added_before = np.zeros(len(by_commodity) + 1, dtype=np.int64)
        for path in added:
            added_before[path.commodity_index + 1] += 1
        np.cumsum(added_before, out=added_before)
        perm = np.empty(len(self._all), dtype=np.int64)
        for commodity, (start, stop) in enumerate(self._commodity_slices):
            perm[start:stop] = (
                np.arange(start, stop, dtype=np.int64) + added_before[commodity]
            )
        if self._membership is not None:
            membership = {
                edge: perm[indices] for edge, indices in self._membership.items()
            }
            fresh: Dict[EdgeKey, List[int]] = {}
            for path in added:
                index = new_set._index[path]
                for edge in set(path.edges):
                    fresh.setdefault(edge, []).append(index)
            for edge, indices in fresh.items():
                extra = np.asarray(sorted(indices), dtype=np.int64)
                base = membership.get(edge)
                if base is None:
                    membership[edge] = extra
                else:
                    merged = np.concatenate([base, extra])
                    merged.sort(kind="stable")
                    membership[edge] = merged
            new_set._membership = membership
        return new_set, perm

    def paths_through(self, edge: EdgeKey) -> List[int]:
        """Return the global indices of paths that use ``edge``."""
        indices = self.edge_membership().get(edge)
        return [] if indices is None else [int(i) for i in indices]

    def describe(self) -> List[str]:
        """Return human-readable path descriptions in global order."""
        return [path.describe() for path in self._all]


def build_path_set(
    graph: nx.MultiDiGraph,
    commodities: Iterable[Commodity],
    max_paths: int = 10_000,
) -> PathSet:
    """Enumerate the paths of every commodity and bundle them in a PathSet."""
    per_commodity = [
        enumerate_commodity_paths(graph, commodity, index, max_paths=max_paths)
        for index, commodity in enumerate(commodities)
    ]
    return PathSet(per_commodity)
