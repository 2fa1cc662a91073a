"""Unit tests for commodities, path enumeration and the PathSet index."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.wardrop.commodity import (
    Commodity,
    demands_are_normalised,
    normalise_demands,
    total_demand,
)
from repro.wardrop.latency import LinearLatency
from repro.wardrop.network import LATENCY_ATTR
from repro.instances import braess_network
from repro.wardrop.paths import (
    CommodityBlocks,
    Path,
    PathSet,
    build_path_set,
    enumerate_commodity_paths,
)


class TestPathSetExtended:
    """Incremental column append: identity, ordering, and the carried-over
    edge membership must match a from-scratch build exactly."""

    def build(self):
        top = Path((("s", "a", 0), ("a", "t", 0)), commodity_index=0)
        bottom = Path((("s", "b", 0), ("b", "t", 0)), commodity_index=0)
        direct = Path((("s", "b", 0),), commodity_index=1)
        detour = Path((("s", "a", 0), ("a", "b", 0)), commodity_index=1)
        return PathSet([[top], [direct]]), [bottom, detour]

    def test_extended_matches_a_fresh_build(self):
        base, added = self.build()
        grown, perm = base.extended(added)
        fresh = PathSet(
            [
                [base.commodity_paths(0)[0], added[0]],
                [base.commodity_paths(1)[0], added[1]],
            ]
        )
        assert list(grown) == list(fresh)
        membership = grown.edge_membership()
        fresh_membership = fresh.edge_membership()
        assert set(membership) == set(fresh_membership)
        for edge, indices in fresh_membership.items():
            assert list(membership[edge]) == list(indices)

    def test_permutation_tracks_every_old_index(self):
        base, added = self.build()
        grown, perm = base.extended(added)
        assert perm.tolist() == [0, 2]  # commodity 1's block shifts by one
        for old_index, path in enumerate(base):
            assert grown.index_of(path) == perm[old_index]

    def test_membership_is_carried_over_not_rescanned(self):
        base, added = self.build()
        base.edge_membership()  # force the scan on the base set
        grown, _ = base.extended(added)
        membership = grown._membership
        assert membership is not None  # carried over eagerly
        fresh = PathSet([list(base.commodity_paths(0)) + [added[0]],
                         list(base.commodity_paths(1)) + [added[1]]])
        for edge, indices in fresh.edge_membership().items():
            assert list(membership[edge]) == list(indices)

    def test_empty_extension_returns_self_and_identity(self):
        base, _ = self.build()
        grown, perm = base.extended([])
        assert grown is base
        assert perm.tolist() == [0, 1]

    def test_unknown_commodity_rejected(self):
        base, added = self.build()
        bad = Path((("s", "a", 0),), commodity_index=7)
        with pytest.raises(ValueError, match="commodity 7"):
            base.extended([bad])


class TestCommodity:
    def test_rejects_non_positive_demand(self):
        with pytest.raises(ValueError):
            Commodity("s", "t", 0.0)
        with pytest.raises(ValueError):
            Commodity("s", "t", -1.0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Commodity("s", "s", 1.0)

    def test_label_falls_back_to_index(self):
        assert Commodity("s", "t", 1.0).label(3) == "commodity-3"
        assert Commodity("s", "t", 1.0, name="web").label(3) == "web"

    def test_normalise(self):
        commodities = [Commodity("s", "t", 2.0), Commodity("a", "b", 6.0)]
        normalised = normalise_demands(commodities)
        assert total_demand(normalised) == pytest.approx(1.0)
        assert normalised[0].demand == pytest.approx(0.25)
        assert demands_are_normalised(normalised)

    def test_normalise_rejects_zero_total(self):
        with pytest.raises(ValueError):
            normalise_demands([])


def _simple_graph():
    graph = nx.MultiDiGraph()
    graph.add_edge("s", "a", **{LATENCY_ATTR: LinearLatency(1.0)})
    graph.add_edge("a", "t", **{LATENCY_ATTR: LinearLatency(1.0)})
    graph.add_edge("s", "t", **{LATENCY_ATTR: LinearLatency(1.0)})
    return graph


def _parallel_graph():
    graph = nx.MultiDiGraph()
    graph.add_edge("s", "t", **{LATENCY_ATTR: LinearLatency(1.0)})
    graph.add_edge("s", "t", **{LATENCY_ATTR: LinearLatency(2.0)})
    return graph


class TestPath:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Path((), 0)

    def test_rejects_discontiguous(self):
        with pytest.raises(ValueError):
            Path((("s", "a", 0), ("b", "t", 0)), 0)

    def test_nodes_and_describe(self):
        path = Path((("s", "a", 0), ("a", "t", 0)), 0)
        assert path.nodes == ("s", "a", "t")
        assert path.describe() == "s->a->t"
        assert path.source == "s"
        assert path.sink == "t"
        assert len(path) == 2


class TestEnumeration:
    def test_enumerates_both_routes(self):
        paths = enumerate_commodity_paths(_simple_graph(), Commodity("s", "t", 1.0), 0)
        descriptions = {path.describe() for path in paths}
        assert descriptions == {"s->t", "s->a->t"}

    def test_parallel_edges_are_distinct_paths(self):
        paths = enumerate_commodity_paths(_parallel_graph(), Commodity("s", "t", 1.0), 0)
        assert len(paths) == 2
        assert len({path.edges for path in paths}) == 2

    def test_missing_endpoint_raises(self):
        with pytest.raises(ValueError):
            enumerate_commodity_paths(_simple_graph(), Commodity("s", "zzz", 1.0), 0)

    def test_unroutable_commodity_raises(self):
        graph = _simple_graph()
        graph.add_node("island")
        with pytest.raises(ValueError):
            enumerate_commodity_paths(graph, Commodity("island", "t", 1.0), 0)

    def test_max_paths_guard(self):
        with pytest.raises(ValueError):
            enumerate_commodity_paths(_simple_graph(), Commodity("s", "t", 1.0), 0, max_paths=1)

    def test_paths_sorted_by_length(self):
        paths = enumerate_commodity_paths(_simple_graph(), Commodity("s", "t", 1.0), 0)
        assert len(paths[0]) <= len(paths[-1])


class TestPathSet:
    def _path_set(self):
        graph = _simple_graph()
        commodities = [Commodity("s", "t", 0.5), Commodity("s", "a", 0.5)]
        return build_path_set(graph, commodities)

    def test_global_indexing_roundtrip(self):
        path_set = self._path_set()
        for index, path in enumerate(path_set):
            assert path_set.index_of(path) == index
            blocks = path_set.blocks
            assert blocks.commodity[index] == path.commodity_index
            assert blocks.index[path.commodity_index, blocks.slot[index]] == index

    def test_commodity_slices_partition(self):
        path_set = self._path_set()
        covered = []
        for i in range(path_set.num_commodities):
            covered.extend(path_set.commodity_indices(i))
        assert covered == list(range(len(path_set)))

    def test_max_path_length(self):
        assert self._path_set().max_path_length() == 2

    def test_paths_through_edge(self):
        path_set = self._path_set()
        edge = ("s", "a", 0)
        through = path_set.paths_through(edge)
        for index in through:
            assert edge in path_set[index].edges

    def test_duplicate_paths_rejected(self):
        path = Path((("s", "t", 0),), 0)
        with pytest.raises(ValueError):
            PathSet([[path, path]])

    def test_contains(self):
        path_set = self._path_set()
        assert path_set[0] in path_set


class TestCommodityBlocks:
    def test_ragged_layout_round_trips_with_zero_padding(self):
        blocks = CommodityBlocks.from_slices([(0, 3), (3, 4), (4, 6)])
        assert blocks.shape == (3, 3) and not blocks.uniform
        np.testing.assert_array_equal(blocks.index, [[0, 1, 2], [3, 0, 0], [4, 5, 0]])
        np.testing.assert_array_equal(blocks.commodity, [0, 0, 0, 1, 2, 2])
        np.testing.assert_array_equal(blocks.slot, [0, 1, 2, 0, 0, 1])
        assert [int(pairs.sum()) for pairs in blocks.pairs] == [6, 0, 2]
        values = np.arange(12.0).reshape(2, 6) + 1.0
        gathered = blocks.gather(values)
        assert gathered.shape == (2, 3, 3)
        np.testing.assert_array_equal(gathered[1], [[7, 8, 9], [10, 0, 0], [11, 12, 0]])
        np.testing.assert_array_equal(blocks.scatter(gathered), values)

    def test_equal_sizes_gather_and_scatter_as_views(self):
        blocks = CommodityBlocks.from_slices([(0, 2), (2, 4)])
        assert blocks.uniform
        values = np.arange(8.0).reshape(2, 4)
        gathered = blocks.gather(values)
        assert np.shares_memory(gathered, values)
        assert np.shares_memory(blocks.scatter(gathered), values)

    def test_a_path_set_caches_its_layout(self):
        network = braess_network()
        assert network.paths.blocks is network.paths.blocks
        assert network.paths.blocks.shape == (1, network.num_paths)
