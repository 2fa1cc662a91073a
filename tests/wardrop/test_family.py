"""Unit tests for same-topology network families (NetworkFamily,
topology_signature); the latency table under them is covered by
test_latency_table.py."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instances import braess_network, pigou_network, two_link_network
from repro.wardrop import FlowVector, NetworkFamily, WardropNetwork, topology_signature
from repro.wardrop.paths import PathSet
from repro.wardrop.latency import ConstantLatency

class TestTopologySignature:
    def test_same_topology_different_coefficients_share_signature(self):
        assert topology_signature(pigou_network(degree=1)) == topology_signature(
            pigou_network(degree=3, constant=2.0)
        )
        assert topology_signature(two_link_network(beta=1.0)) == topology_signature(
            two_link_network(beta=8.0)
        )

    def test_different_topologies_differ(self):
        assert topology_signature(pigou_network()) != topology_signature(braess_network())
        assert topology_signature(braess_network(with_shortcut=True)) != topology_signature(
            braess_network(with_shortcut=False)
        )


class TestNetworkFamily:
    def test_validates_topology(self):
        with pytest.raises(ValueError):
            NetworkFamily([pigou_network(), braess_network()])
        with pytest.raises(ValueError):
            NetworkFamily([])

    @pytest.mark.parametrize("change", ["reordered", "subset"])
    def test_rejects_a_member_with_a_different_path_set(self, change):
        # Same graph and commodities, different incidence columns: the
        # signature's path descriptions tell them apart.
        base = braess_network()
        paths = list(base.paths.commodity_paths(0))
        paths = paths[::-1] if change == "reordered" else paths[:-1]
        other = WardropNetwork(base.graph, base.commodities, paths=PathSet([paths]))
        with pytest.raises(ValueError, match="different topology"):
            NetworkFamily([base, other])

    def test_from_builder_and_replicate(self):
        family = NetworkFamily.from_builder(
            pigou_network, [{"degree": 1, "constant": c} for c in (0.5, 1.0, 1.5)]
        )
        assert family.size == 3
        shared = NetworkFamily.replicate(braess_network(), 4)
        assert shared.size == 4 and shared.member(2) is shared.base
        with pytest.raises(ValueError):
            NetworkFamily.replicate(braess_network(), 0)

    def test_edge_latencies_match_members(self):
        constants = (0.5, 1.0, 1.5)
        networks = [pigou_network(degree=2, constant=c) for c in constants]
        family = NetworkFamily(networks)
        rng = np.random.default_rng(3)
        flows = np.stack([FlowVector.random(net, rng).values() for net in networks])
        edge_flows = family.base.edge_flows(flows)
        edge_latencies = family.edge_latencies_batch(edge_flows)
        path_latencies = family.path_latencies_batch(flows)
        for row, network in enumerate(networks):
            np.testing.assert_allclose(
                edge_latencies[row],
                network.edge_latencies(network.edge_flows(flows[row])),
                rtol=0,
                atol=0,
            )
            np.testing.assert_allclose(
                path_latencies[row], network.path_latencies(flows[row]), rtol=0, atol=0
            )

    def test_row_subset_evaluation(self):
        networks = [two_link_network(beta=b) for b in (1.0, 2.0, 4.0)]
        family = NetworkFamily(networks)
        flows = np.array([[0.8, 0.2], [0.7, 0.3]])
        rows = np.array([2, 0])
        latencies = family.path_latencies_batch(flows, rows)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(
                latencies[i], networks[row].path_latencies(flows[i]), rtol=0, atol=0
            )

    def test_family_constants_bound_members(self):
        networks = [two_link_network(beta=b) for b in (1.0, 8.0)]
        family = NetworkFamily(networks)
        assert family.max_slope() == max(n.max_slope() for n in networks)
        assert family.max_latency() == max(n.max_latency() for n in networks)


class TestFromCoefficients:
    """`NetworkFamily.from_coefficients` synthesises members without graphs."""

    def build_pair(self):
        """The same Pigou constant sweep built both ways."""
        constants = (0.5, 0.75, 1.0, 1.25)
        base = pigou_network(degree=1)
        constant_edge = next(
            i
            for i, edge in enumerate(base.edges)
            if isinstance(base.latency_function(edge), ConstantLatency)
        )
        built = NetworkFamily.from_builder(
            pigou_network, [{"degree": 1, "constant": c} for c in constants]
        )
        synthesised = NetworkFamily.from_coefficients(
            base, [{constant_edge: ConstantLatency(c)} for c in constants]
        )
        return built, synthesised, base

    def test_matches_graph_built_family_latency_table(self):
        built, synthesised, base = self.build_pair()
        assert synthesised.size == built.size
        rng = np.random.default_rng(11)
        flows = rng.dirichlet(np.ones(base.num_paths), size=built.size)
        np.testing.assert_array_equal(
            synthesised.path_latencies_batch(flows), built.path_latencies_batch(flows)
        )
        edge_flows = built.base.edge_flows(flows)
        np.testing.assert_array_equal(
            synthesised.edge_latencies_batch(edge_flows),
            built.edge_latencies_batch(edge_flows),
        )
        # The tables agree cell by cell on a subset of rows too.
        rows = np.array([3, 1])
        np.testing.assert_array_equal(
            synthesised.edge_latencies_batch(edge_flows[rows], rows),
            built.edge_latencies_batch(edge_flows[rows], rows),
        )

    def test_members_share_structure_but_own_their_latencies(self):
        built, synthesised, base = self.build_pair()
        for member, reference in zip(synthesised.networks, built.networks):
            # Shared topology objects: no graph or path set was rebuilt.
            assert member.paths is base.paths
            assert member.incidence is base.incidence
            # Per-member theory constants still reflect the overrides.
            assert member.max_latency() == reference.max_latency()
            assert member.max_slope() == reference.max_slope()
        # The base instance itself is untouched by the overrides.
        assert base.latency_function(base.edges[0]).value(0.0) == pytest.approx(
            pigou_network(degree=1).latency_function(base.edges[0]).value(0.0)
        )

    def test_edge_keys_accept_triples_and_validates(self):
        _, _, base = self.build_pair()
        edge = base.edges[0]
        clone = base.with_latencies({edge: ConstantLatency(2.0)})
        assert clone.latency_function(edge).value(0.3) == 2.0
        with pytest.raises(ValueError, match="unknown edge"):
            base.with_latencies({("x", "y", 0): ConstantLatency(1.0)})
        with pytest.raises(ValueError, match="not a LatencyFunction"):
            base.with_latencies({edge: 3.0})
        with pytest.raises(ValueError):
            NetworkFamily.from_coefficients(base, [])

    def test_overridden_clones_flow_through_social_cost(self):
        """Derived quantities must see the overrides, not the base graph's
        latencies (code-review regression: optimal_flow/price_of_anarchy
        previously read the shared graph attributes directly)."""
        from repro.wardrop.social_cost import optimal_flow, price_of_anarchy

        base = pigou_network(degree=1, constant=1.0)
        constant_edge = next(
            i
            for i, edge in enumerate(base.edges)
            if isinstance(base.latency_function(edge), ConstantLatency)
        )
        clone = base.with_latencies({constant_edge: ConstantLatency(0.25)})
        reference = pigou_network(degree=1, constant=0.25)
        np.testing.assert_allclose(
            optimal_flow(clone).values(), optimal_flow(reference).values(), atol=1e-6
        )
        cost_eq, cost_opt, ratio = price_of_anarchy(clone)
        ref_eq, ref_opt, ref_ratio = price_of_anarchy(reference)
        assert ratio >= 1.0
        assert ratio == pytest.approx(ref_ratio, abs=1e-6)
