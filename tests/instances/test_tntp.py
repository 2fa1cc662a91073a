"""The TNTP parser, the loader's modelling choices and the bundled fixture."""

import numpy as np
import pytest

from repro.instances import (
    SIOUX_FALLS_REFERENCE_TSTT,
    get_instance,
    load_tntp_instance,
    parse_tntp_network,
    parse_tntp_trips,
    sioux_falls_network,
)
from repro.instances.tntp import SIOUX_FALLS_NET, SIOUX_FALLS_TRIPS
from repro.solvers import solve_edge_flow_equilibrium
from repro.wardrop import BPRLatency

GOOD_NET = """
<NUMBER OF ZONES> 2
<NUMBER OF NODES> 3
<FIRST THRU NODE> 1
<NUMBER OF LINKS> 3
<END OF METADATA>
~ init term capacity length fft b power speed toll type ;
1 3 1000 2 2 0.15 4 0 0 1 ;
3 2 1000 2 2 0.15 4 0 0 1 ;
1 2 1000 10 10 0.15 4 0 0 1 ;
"""

GOOD_TRIPS = """
<NUMBER OF ZONES> 2
<TOTAL OD FLOW> 100.0
<END OF METADATA>
Origin 1
1 : 0.0; 2 : 100.0;
Origin 2
1 : 0.0; 2 : 0.0;
"""


class TestNetworkParser:
    def test_parses_metadata_and_links(self):
        metadata, links = parse_tntp_network(GOOD_NET)
        assert metadata["FIRST THRU NODE"] == "1"
        assert len(links) == 3
        assert links[0].init_node == 1 and links[0].term_node == 3
        assert links[0].capacity == 1000.0 and links[0].power == 4.0

    def test_comment_lines_and_trailing_semicolons_are_ignored(self):
        noisy = GOOD_NET.replace(
            "<END OF METADATA>", "<END OF METADATA>\n~ a full-line comment"
        ) + "~ trailing commentary\n"
        _, links = parse_tntp_network(noisy)
        assert len(links) == 3

    def test_semicolon_glued_to_the_last_field_still_parses(self):
        glued = GOOD_NET.replace(" 1 ;", " 1;")
        _, links = parse_tntp_network(glued)
        assert len(links) == 3
        assert links[-1].link_type == 1

    def test_malformed_metadata_line_raises(self):
        broken = GOOD_NET.replace("<FIRST THRU NODE> 1", "<FIRST THRU NODE 1")
        with pytest.raises(ValueError, match="malformed TNTP metadata"):
            parse_tntp_network(broken)

    def test_non_numeric_metadata_value_raises(self):
        broken = GOOD_NET.replace("<NUMBER OF LINKS> 3", "<NUMBER OF LINKS> many")
        with pytest.raises(ValueError, match="not a number"):
            parse_tntp_network(broken)

    def test_link_count_mismatch_raises(self):
        broken = GOOD_NET.replace("<NUMBER OF LINKS> 3", "<NUMBER OF LINKS> 4")
        with pytest.raises(ValueError, match="declares 4 links"):
            parse_tntp_network(broken)

    def test_short_link_row_raises(self):
        broken = GOOD_NET + "1 2 1000 ;\n"
        with pytest.raises(ValueError, match="malformed TNTP link row"):
            parse_tntp_network(broken)

    @pytest.mark.parametrize(
        "row, field",
        [
            ("1 2 nan 10 10 0.15 4 0 0 1 ;", "capacity must be finite and positive"),
            ("1 2 0 10 10 0.15 4 0 0 1 ;", "capacity must be finite and positive"),
            ("1 2 1000 10 -3 0.15 4 0 0 1 ;", "free_flow_time must be finite and non-negative"),
            ("1 2 1000 10 10 inf 4 0 0 1 ;", "b must be finite and non-negative"),
            ("1 2 1000 10 10 0.15 nan 0 0 1 ;", "power must be finite and non-negative"),
        ],
    )
    def test_bpr_fields_outside_their_domain_raise_naming_row_and_field(self, row, field):
        broken = GOOD_NET.replace("1 2 1000 10 10 0.15 4 0 0 1 ;", row)
        with pytest.raises(ValueError, match=field) as error:
            parse_tntp_network(broken)
        assert row.rstrip(" ;") in str(error.value)


class TestTripsParser:
    def test_zero_demand_and_diagonal_pairs_are_dropped(self):
        _, demands = parse_tntp_trips(GOOD_TRIPS)
        assert demands == {(1, 2): 100.0}

    def test_total_od_flow_mismatch_raises(self):
        broken = GOOD_TRIPS.replace("<TOTAL OD FLOW> 100.0", "<TOTAL OD FLOW> 400.0")
        with pytest.raises(ValueError, match="total OD flow"):
            parse_tntp_trips(broken)

    def test_row_before_origin_raises(self):
        broken = GOOD_TRIPS.replace("Origin 1", "NotAnOrigin 1")
        with pytest.raises(ValueError, match="before any 'Origin'"):
            parse_tntp_trips(broken)

    def test_entry_without_colon_raises(self):
        broken = GOOD_TRIPS.replace("2 : 100.0;", "2 100.0;")
        with pytest.raises(ValueError, match="malformed TNTP trips entry"):
            parse_tntp_trips(broken)

    def test_negative_demand_raises(self):
        broken = GOOD_TRIPS.replace("2 : 100.0;", "2 : -5.0;").replace(
            "<TOTAL OD FLOW> 100.0", "<TOTAL OD FLOW> -5.0"
        )
        with pytest.raises(ValueError, match=r"OD \(1, 2\) must be finite and non-negative"):
            parse_tntp_trips(broken)

    def test_nan_demand_raises_naming_the_od_entry(self):
        broken = GOOD_TRIPS.replace("2 : 100.0;", "2 : nan;")
        with pytest.raises(ValueError, match=r"OD \(1, 2\) must be finite and non-negative: '2 : nan'"):
            parse_tntp_trips(broken)


class TestLoader:
    def test_loader_builds_bpr_latencies_with_scaled_capacity(self, tmp_path):
        net_file = tmp_path / "toy_net.tntp"
        trips_file = tmp_path / "toy_trips.tntp"
        net_file.write_text(GOOD_NET)
        trips_file.write_text(GOOD_TRIPS)
        network = load_tntp_instance(net_file, trips_file, name="toy")
        assert network.graph.graph["total_demand"] == 100.0
        assert network.num_commodities == 1
        assert network.commodities[0].demand == 1.0  # normalised
        latency = network.latency_function(network.edges[0])
        assert isinstance(latency, BPRLatency)
        assert latency.capacity == pytest.approx(1000.0 / 100.0)

    def test_first_thru_node_blocks_routing_through_centroids(self, tmp_path):
        # Zones 1, 2 are centroids (first thru node = 3).  The cheap route
        # 1 -> 2 -> 4 passes *through* zone 2 and must not be seeded; the
        # direct link 1 -> 4 is the only legal route.
        net_text = """
<NUMBER OF ZONES> 2
<FIRST THRU NODE> 3
<NUMBER OF LINKS> 3
<END OF METADATA>
1 2 1000 1 1 0.15 4 0 0 1 ;
2 4 1000 1 1 0.15 4 0 0 1 ;
1 4 1000 10 10 0.15 4 0 0 1 ;
"""
        trips_text = """
<NUMBER OF ZONES> 2
<TOTAL OD FLOW> 50.0
<END OF METADATA>
Origin 1
4 : 50.0;
"""
        net_file = tmp_path / "thru_net.tntp"
        trips_file = tmp_path / "thru_trips.tntp"
        net_file.write_text(net_text)
        trips_file.write_text(trips_text)
        network = load_tntp_instance(net_file, trips_file)
        assert network.graph.graph["first_thru_node"] == 3
        assert [path.describe() for path in network.paths] == ["1->4"]

    def test_max_od_pairs_keeps_the_largest_demands(self):
        mini = sioux_falls_network(max_od_pairs=40)
        assert mini.num_commodities == 40
        full = sioux_falls_network()
        cutoff = sorted(
            (commodity.demand for commodity in full.commodities), reverse=True
        )[39]
        kept_raw = mini.graph.graph["total_demand"]
        assert kept_raw < full.graph.graph["total_demand"]
        # All kept demands are at least the full instance's 40th largest.
        for commodity in mini.commodities:
            assert commodity.demand * kept_raw >= cutoff * full.graph.graph[
                "total_demand"
            ] * (1 - 1e-12)


class TestSiouxFallsFixture:
    def test_round_trip_structure(self):
        metadata, links = parse_tntp_network(SIOUX_FALLS_NET.read_text())
        assert len(links) == 76
        assert int(float(metadata["NUMBER OF NODES"])) == 24
        _, demands = parse_tntp_trips(SIOUX_FALLS_TRIPS.read_text())
        assert len(demands) == 528
        total = sum(demands.values())
        assert total == pytest.approx(360_400.0)
        # The trip table is symmetric.
        for (origin, destination), demand in demands.items():
            assert demands[(destination, origin)] == demand

    def test_registered_instance_shape(self):
        network = get_instance("sioux-falls")
        assert network.graph.number_of_nodes() == 24
        assert network.graph.number_of_edges() == 76
        assert network.num_commodities == 528
        assert network.num_paths == 528  # one free-flow seed path each
        assert sum(c.demand for c in network.commodities) == pytest.approx(1.0)

    def test_equilibrium_tstt_matches_reference(self):
        """Edge-flow Frank--Wolfe reaches rel. gap < 1e-4 on Sioux Falls and
        reproduces the recorded equilibrium TSTT within 0.5% (acceptance)."""
        network = sioux_falls_network()
        result = solve_edge_flow_equilibrium(network, tolerance=1e-4)
        assert result.converged
        assert result.relative_gap < 1e-4
        raw_tstt = result.tstt * network.graph.graph["total_demand"]
        assert raw_tstt == pytest.approx(SIOUX_FALLS_REFERENCE_TSTT, rel=5e-3)
        # Flow conservation: total outflow of each origin equals its demand.
        assert np.all(result.edge_flows >= -1e-12)
