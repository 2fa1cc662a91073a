"""The CSR incidence operator and the shared membership index."""

import numpy as np
import pytest

from repro.instances import braess_network, get_instance, grid_network
from repro.largescale import EdgeIncidence, build_incidence

INSTANCES = {
    "braess": braess_network,
    "grid-2c": lambda: grid_network(3, 3, num_commodities=2, seed=3),
    "sioux-falls-mini": lambda: get_instance("sioux-falls-mini"),
}


@pytest.fixture(params=sorted(INSTANCES), scope="module")
def network(request):
    return INSTANCES[request.param]()


def path_edge_indices(network):
    """Per path, the edge positions read off its own edge list."""
    return [[network.edge_index(edge) for edge in path.edges] for path in network.paths]


class TestProducts:
    def test_shape_and_memberships(self, network):
        operator = network.incidence_operator
        assert isinstance(operator, EdgeIncidence)
        assert operator.shape == (network.num_edges, network.num_paths)
        assert operator.nnz == sum(len(edges) for edges in path_edge_indices(network))

    def test_edge_flows_sum_the_paths_through_each_edge(self, network):
        flows = np.random.default_rng(7).random(network.num_paths)
        expected = np.zeros(network.num_edges)
        for path, edges in enumerate(path_edge_indices(network)):
            for edge in edges:
                expected[edge] += flows[path]
        result = network.incidence_operator.edge_flows(flows)
        assert result.shape == (network.num_edges,)
        assert np.allclose(result, expected, rtol=1e-14, atol=0.0)
        assert np.array_equal(network.edge_flows(flows), result)

    def test_path_totals_sum_each_paths_edges(self, network):
        values = np.random.default_rng(8).random(network.num_edges)
        expected = np.array([values[edges].sum() for edges in path_edge_indices(network)])
        result = network.incidence_operator.path_totals(values)
        assert result.shape == (network.num_paths,)
        assert np.allclose(result, expected, rtol=1e-14, atol=0.0)
        assert np.array_equal(network.path_latencies_from_edge_latencies(values), result)

    def test_batched_rows_are_c_contiguous_and_equal_their_one_row_products(self, network):
        operator = network.incidence_operator
        rng = np.random.default_rng(11)
        flows = rng.random((6, network.num_paths))
        values = rng.random((6, network.num_edges))
        for product, batch in ((operator.edge_flows, flows), (operator.path_totals, values)):
            batched = product(batch)
            assert batched.flags.c_contiguous
            for row in range(len(batch)):
                assert np.array_equal(batched[row], product(batch[row]))

    def test_build_incidence_matches_the_network_operator(self, network):
        operator = build_incidence(network.paths, network.edges)
        assert np.array_equal(operator.dense(), network.incidence)


class TestSharedMembership:
    def test_paths_through_matches_brute_force(self):
        network = grid_network(3, 3, num_commodities=2, seed=3)
        paths = network.paths
        for edge in network.edges:
            expected = [i for i, path in enumerate(paths) if edge in path.edges]
            assert paths.paths_through(edge) == expected

    def test_membership_is_built_once_and_shared(self):
        network = braess_network()
        paths = network.paths
        first = paths.edge_membership()
        assert paths.edge_membership() is first  # cached, no per-call scan
        # The incidence matrix consumes the same membership map.
        for edge, indices in first.items():
            column = network.incidence[network.edge_index(edge)]
            assert np.array_equal(np.flatnonzero(column), indices)

    def test_paths_through_unknown_edge_is_empty(self):
        network = braess_network()
        assert network.paths.paths_through(("nope", "nowhere", 0)) == []


class TestReadOnlyDenseView:
    """``dense()`` hands out a read-only cached array: a caller's in-place
    edit must not corrupt the cache or later products."""

    def test_dense_cache_is_read_only_and_stable(self):
        network = braess_network()
        operator = build_incidence(network.paths, network.edges)
        cache = operator.dense()
        with pytest.raises(ValueError):
            cache[0, 0] = 99.0
        assert operator.dense() is cache  # cached, not rebuilt per call
        assert network.incidence is network.incidence
        flows = np.ones(network.num_paths)
        assert np.array_equal(operator.edge_flows(flows), cache @ flows)

    def test_mutation_attempt_does_not_poison_later_products(self):
        network = braess_network()
        operator = build_incidence(network.paths, network.edges)
        flows = np.ones(network.num_paths)
        before = operator.edge_flows(flows).copy()
        with pytest.raises(ValueError):
            operator.dense()[:] = 0.0
        assert np.array_equal(operator.edge_flows(flows), before)
