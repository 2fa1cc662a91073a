"""The synthetic city generator and the dynamic ``tntp:`` instance loader."""

import numpy as np
import pytest

from repro.instances import (
    available_instances,
    city_tntp_text,
    get_instance,
    synthetic_city_network,
)
from repro.instances.city import (
    ARTERIAL_CAPACITY,
    STREET_CAPACITY,
    _periphery_nodes,
)
from repro.instances.tntp import parse_tntp_network, parse_tntp_trips
from repro.largescale import ShortestPathOracle


class TestCityTntpText:
    def test_default_city_is_road_network_scale(self):
        net_text, trips_text = city_tntp_text()
        metadata, links = parse_tntp_network(net_text)
        assert len(links) == 4 * 16 * 15 == 960
        assert int(metadata["NUMBER OF NODES"]) == 256
        assert int(metadata["FIRST THRU NODE"]) == 1
        _, demands = parse_tntp_trips(trips_text)
        assert len(demands) == 12

    def test_arterial_links_follow_the_grid_pattern(self):
        net_text, _ = city_tntp_text(blocks=8, arterial_every=4)
        _, links = parse_tntp_network(net_text)
        by_capacity = {}
        for link in links:
            by_capacity.setdefault(link.capacity, 0)
            by_capacity[link.capacity] += 1
        # 8 blocks / arterial_every=4 -> 2 arterial rows and 2 arterial
        # columns, each with 2*(blocks-1) directed links.
        assert by_capacity[ARTERIAL_CAPACITY] == 2 * 2 * 2 * 7
        assert by_capacity[STREET_CAPACITY] == 4 * 8 * 7 - by_capacity[ARTERIAL_CAPACITY]

    def test_declared_total_matches_the_rows(self):
        _, trips_text = city_tntp_text(blocks=4, arterial_every=2, od_pairs=5)
        _, demands = parse_tntp_trips(trips_text)  # parser cross-checks the total
        assert len(demands) == 5
        assert all(volume > 0 for volume in demands.values())

    def test_od_pairs_sit_on_the_periphery(self):
        _, trips_text = city_tntp_text(blocks=6, arterial_every=3, od_pairs=8)
        periphery = set(_periphery_nodes(6))
        for (origin, destination) in parse_tntp_trips(trips_text)[1]:
            assert origin in periphery
            assert destination in periphery
            assert origin != destination

    def test_generation_is_deterministic_in_the_seed(self):
        assert city_tntp_text(seed=3) == city_tntp_text(seed=3)
        assert city_tntp_text(seed=3)[1] != city_tntp_text(seed=4)[1]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            city_tntp_text(blocks=1)
        with pytest.raises(ValueError, match="arterial_every"):
            city_tntp_text(arterial_every=0)
        with pytest.raises(ValueError, match="od_pairs"):
            city_tntp_text(od_pairs=0)
        with pytest.raises(ValueError, match="periphery"):
            city_tntp_text(blocks=2, od_pairs=100)


class TestSyntheticCityNetwork:
    def test_network_loads_through_the_tntp_path(self):
        network = synthetic_city_network(blocks=4, arterial_every=2, od_pairs=4)
        assert network.graph.number_of_edges() == 4 * 4 * 3
        assert network.num_commodities == 4
        # One free-flow shortest-path seed per commodity, like any TNTP load.
        assert network.num_paths == 4
        assert network.graph.graph["name"] == "city-grid-4x4"
        assert network.graph.graph["first_thru_node"] == 1

    def test_seeds_are_free_flow_shortest_paths(self):
        network = synthetic_city_network(blocks=4, arterial_every=2, od_pairs=4)
        oracle = ShortestPathOracle.for_network(network)
        seeds = oracle.shortest_commodity_paths(oracle.free_flow_costs(network))
        assert list(network.paths) == seeds

    def test_round_trips_through_temp_tntp_files(self, tmp_path):
        from repro.instances import load_tntp_instance

        net_text, trips_text = city_tntp_text(blocks=4, arterial_every=2, od_pairs=4)
        net_file = tmp_path / "city_net.tntp"
        trips_file = tmp_path / "city_trips.tntp"
        net_file.write_text(net_text)
        trips_file.write_text(trips_text)
        loaded = load_tntp_instance(net_file, trips_file, name="disk-city")
        generated = synthetic_city_network(blocks=4, arterial_every=2, od_pairs=4)
        assert loaded.graph.number_of_edges() == generated.graph.number_of_edges()
        assert [c.demand for c in loaded.commodities] == [
            c.demand for c in generated.commodities
        ]
        assert list(loaded.paths) == list(generated.paths)


class TestRegistryIntegration:
    def test_city_names_are_registered(self):
        names = available_instances()
        assert "city-grid" in names
        assert "city-grid-mini" in names

    def test_city_grid_mini_shape(self):
        network = get_instance("city-grid-mini")
        assert network.graph.number_of_edges() == 4 * 4 * 3
        assert network.num_commodities == 4

    def test_dynamic_tntp_loader(self, tmp_path):
        net_text, trips_text = city_tntp_text(blocks=4, arterial_every=2, od_pairs=3)
        net_file = tmp_path / "net.tntp"
        trips_file = tmp_path / "trips.tntp"
        net_file.write_text(net_text)
        trips_file.write_text(trips_text)
        network = get_instance(f"tntp:{net_file},{trips_file}")
        assert network.graph.number_of_edges() == 4 * 4 * 3
        assert network.num_commodities == 3

    def test_malformed_dynamic_spec_rejected(self):
        with pytest.raises(KeyError, match="tntp:"):
            get_instance("tntp:only_one_path.tntp")

    def test_unknown_name_mentions_the_dynamic_form(self):
        with pytest.raises(KeyError, match="tntp:"):
            get_instance("no-such-instance")


class TestCityBackendTier:
    def test_city_incidence_holds_one_entry_per_path_edge(self):
        network = synthetic_city_network(blocks=8, arterial_every=4, od_pairs=6)
        operator = network.incidence_operator
        assert operator.shape == (network.num_edges, network.num_paths)
        assert operator.nnz == sum(len(path.edges) for path in network.paths)

    def test_default_city_keeps_mild_equilibrium_congestion(self):
        from repro.solvers import solve_edge_flow_equilibrium

        network = synthetic_city_network(blocks=8, arterial_every=4, od_pairs=6)
        result = solve_edge_flow_equilibrium(network, tolerance=1e-3)
        assert result.relative_gap <= 1e-3
        assert np.all(np.isfinite(result.edge_flows))
