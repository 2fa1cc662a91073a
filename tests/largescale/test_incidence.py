"""The dense/sparse incidence backends and the shared membership index."""

import numpy as np
import pytest

from repro.instances import (
    braess_network,
    grid_network,
    random_layered_network,
    sioux_falls_network,
)
from repro.largescale import (
    DenseIncidence,
    SparseIncidence,
    build_incidence,
)
from repro.wardrop import WardropNetwork

def build_both(network):
    dense = build_incidence(network.paths, network.edges, mode="dense")
    sparse = build_incidence(network.paths, network.edges, mode="sparse")
    return dense, sparse


class TestBackendAgreement:
    @pytest.mark.parametrize("factory", [braess_network, lambda: grid_network(3, 3, num_commodities=2, seed=3)])
    def test_dense_and_sparse_products_agree(self, factory):
        network = factory()
        dense, sparse = build_both(network)
        assert isinstance(dense, DenseIncidence)
        assert isinstance(sparse, SparseIncidence)
        assert dense.shape == sparse.shape == (network.num_edges, network.num_paths)
        assert dense.nnz == sparse.nnz
        assert np.array_equal(dense.dense(), sparse.dense())
        rng = np.random.default_rng(7)
        flows = rng.random(network.num_paths)
        batch = rng.random((5, network.num_paths))
        values = rng.random(network.num_edges)
        batch_values = rng.random((5, network.num_edges))
        assert np.allclose(dense.edge_flows(flows), sparse.edge_flows(flows), atol=1e-13)
        assert np.allclose(
            dense.edge_flows_batch(batch), sparse.edge_flows_batch(batch), atol=1e-13
        )
        assert np.allclose(dense.path_totals(values), sparse.path_totals(values), atol=1e-13)
        assert np.allclose(
            dense.path_totals_batch(batch_values),
            sparse.path_totals_batch(batch_values),
            atol=1e-13,
        )

    def test_sparse_scalar_and_batch_rows_are_bit_identical(self):
        """The CSR batch product must replay the scalar accumulation exactly."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        _, sparse = build_both(network)
        rng = np.random.default_rng(11)
        batch = rng.random((6, network.num_paths))
        batched = sparse.edge_flows_batch(batch)
        for row in range(6):
            assert np.array_equal(batched[row], sparse.edge_flows(batch[row]))
        batch_values = rng.random((6, network.num_edges))
        batched_totals = sparse.path_totals_batch(batch_values)
        for row in range(6):
            assert np.array_equal(batched_totals[row], sparse.path_totals(batch_values[row]))

    def test_network_evaluation_matches_across_modes(self):
        base = braess_network()
        sparse_net = WardropNetwork(
            base.graph, base.commodities, normalise=False, incidence_mode="sparse"
        )
        rng = np.random.default_rng(3)
        flows = rng.random(base.num_paths)
        batch = rng.random((4, base.num_paths))
        assert np.allclose(base.edge_flows(flows), sparse_net.edge_flows(flows), atol=1e-13)
        assert np.allclose(
            base.path_latencies(flows), sparse_net.path_latencies(flows), atol=1e-12
        )
        assert np.allclose(
            base.path_latencies_batch(batch),
            sparse_net.path_latencies_batch(batch),
            atol=1e-12,
        )
        assert np.array_equal(base.incidence, sparse_net.incidence)


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


class TestDenseBitIdentity:
    def test_dense_scalar_and_batch_rows_are_bit_identical(self):
        """The dense batch products must replay the scalar GEMV per row: the
        one-GEMM evaluation can accumulate in a different order and land one
        ulp away, which broke closed-mode batched column generation."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        dense = build_incidence(network.paths, network.edges, mode="dense")
        rng = np.random.default_rng(11)
        batch = rng.random((6, network.num_paths))
        batched = dense.edge_flows_batch(batch)
        for row in range(6):
            assert np.array_equal(batched[row], dense.edge_flows(batch[row]))
        batch_values = rng.random((6, network.num_edges))
        batched_totals = dense.path_totals_batch(batch_values)
        for row in range(6):
            assert np.array_equal(
                batched_totals[row], dense.path_totals(batch_values[row])
            )


class TestReadOnlyDenseViews:
    """``dense()`` hands out read-only arrays: a caller's in-place edit must
    not corrupt the operator's internal matrix or cache."""

    def test_dense_backend_view_is_read_only_and_stable(self):
        network = braess_network()
        dense = build_incidence(network.paths, network.edges, mode="dense")
        view = dense.dense()
        with pytest.raises(ValueError):
            view[0, 0] = 99.0
        assert dense.dense() is view  # cached, not rebuilt per call
        flows = np.ones(network.num_paths)
        assert np.array_equal(dense.edge_flows(flows), view @ flows)

    def test_sparse_backend_cache_is_read_only_and_stable(self):
        network = braess_network()
        sparse = build_incidence(network.paths, network.edges, mode="sparse")
        cache = sparse.dense()
        with pytest.raises(ValueError):
            cache[0, 0] = 99.0
        assert sparse.dense() is cache
        flows = np.ones(network.num_paths)
        assert np.array_equal(sparse.edge_flows(flows), cache @ flows)

    def test_mutation_attempt_does_not_poison_later_products(self):
        network = braess_network()
        dense = build_incidence(network.paths, network.edges, mode="dense")
        flows = np.ones(network.num_paths)
        before = dense.edge_flows(flows).copy()
        try:
            dense.dense()[:] = 0.0
        except ValueError:
            pass
        assert np.array_equal(dense.edge_flows(flows), before)


class TestModeSelection:
    def test_sioux_falls_uses_the_sparse_backend(self):
        network = sioux_falls_network()
        assert isinstance(network.incidence_operator, SparseIncidence)

    def test_small_instances_stay_dense_in_auto_mode(self):
        network = braess_network()
        assert isinstance(network.incidence_operator, DenseIncidence)

    def test_auto_goes_sparse_at_road_network_edge_counts(self):
        """CSR is the default tier at road-network sizes regardless of the
        current path count: column generation starts with few paths, so the
        dense-entries threshold alone would start road networks dense and
        re-tier them mid-run."""
        from repro.largescale.incidence import AUTO_SPARSE_MIN_EDGES

        network = random_layered_network(4, 5, num_commodities=3, seed=3)
        assert network.num_edges >= AUTO_SPARSE_MIN_EDGES
        assert network.num_paths * network.num_edges < 200_000
        operator = build_incidence(network.paths, network.edges, mode="auto")
        assert isinstance(operator, SparseIncidence)

    def test_unknown_mode_rejected(self):
        network = braess_network()
        with pytest.raises(ValueError, match="incidence mode"):
            build_incidence(network.paths, network.edges, mode="csr")
