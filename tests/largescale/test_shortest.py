"""The shortest-path oracle against an independent reference Dijkstra."""

import heapq
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instances import get_instance
from repro.instances.tntp import load_tntp_from_text, sioux_falls_network
from repro.largescale import ShortestPathOracle
from repro.wardrop.commodity import Commodity
from repro.wardrop.latency import ConstantLatency
from repro.wardrop.network import LATENCY_ATTR


def reference_distances(graph, costs, source, first_thru_node=None):
    """Textbook binary-heap Dijkstra; ``costs`` maps edge keys to costs.

    Nodes below ``first_thru_node`` (centroids) are reached but never
    expanded, unless they are the source.
    """
    distance = {source: 0.0}
    settled = set()
    heap = [(0.0, 0, source)]
    counter = 0
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node != source and first_thru_node is not None and node < first_thru_node:
            continue
        for u, v, key in graph.out_edges(node, keys=True):
            candidate = dist + costs[(u, v, key)]
            if candidate < distance.get(v, np.inf):
                distance[v] = candidate
                counter += 1
                heapq.heappush(heap, (candidate, counter, v))
    return distance


def reference_commodity_costs(oracle, costs):
    by_edge = dict(zip(oracle.edges, costs))
    return np.array(
        [
            reference_distances(
                oracle.graph, by_edge, c.source, oracle.first_thru_node
            ).get(c.sink, np.inf)
            for c in oracle.commodities
        ]
    )


def constant_graph(arcs):
    graph = nx.MultiDiGraph()
    for u, v, cost in arcs:
        graph.add_edge(u, v, **{LATENCY_ATTR: ConstantLatency(cost)})
    return graph


def assert_valid_path(oracle, path, commodity, costs, expected_cost):
    assert path.source == commodity.source and path.sink == commodity.sink
    for u, v, key in path.edges:
        assert oracle.graph.has_edge(u, v, key)
    if oracle.first_thru_node is not None:
        # Interior nodes may never be centroids.
        assert all(u >= oracle.first_thru_node for u, _v, _k in path.edges[1:])
    cost = 0.0
    for edge in path.edges:
        cost += costs[oracle.edge_index[edge]]
    assert cost == pytest.approx(expected_cost, rel=1e-12, abs=1e-12)


# Costs from a small set so ties (across nodes and across parallel arcs) are
# common; +inf arcs are priced out.
cost_values = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.25, np.inf])


@st.composite
def multigraph_instances(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    arcs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=3 * num_nodes))
    # Repeat some arcs verbatim so parallel arcs with tied costs appear.
    repeats = draw(st.lists(st.sampled_from(arcs), max_size=3))
    pairs = draw(
        st.lists(
            st.tuples(node, node).filter(lambda pair: pair[0] != pair[1]),
            min_size=1,
            max_size=4,
        )
    )
    demands = draw(
        st.lists(
            st.floats(min_value=0.125, max_value=4.0), min_size=len(pairs), max_size=len(pairs)
        )
    )
    first_thru_node = draw(st.one_of(st.none(), st.integers(0, num_nodes)))
    graph = constant_graph([(u, v, 1.0) for u, v in arcs + repeats])
    graph.add_nodes_from(range(num_nodes))
    commodities = [Commodity(s, t, d) for (s, t), d in zip(pairs, demands)]
    oracle = ShortestPathOracle(graph, commodities, first_thru_node=first_thru_node)
    costs = draw(
        st.lists(cost_values, min_size=oracle.num_edges, max_size=oracle.num_edges)
    )
    return oracle, np.array(costs)


def net_outflow(oracle, edge_flows):
    outflow = {node: 0.0 for node in oracle.graph.nodes}
    for (u, v, _key), flow in zip(oracle.edges, edge_flows):
        outflow[u] += flow
        outflow[v] -= flow
    return outflow


class TestAgainstReference:
    @given(instance=multigraph_instances())
    @settings(max_examples=150, deadline=None)
    def test_random_multigraphs(self, instance):
        oracle, costs = instance
        expected = reference_commodity_costs(oracle, costs)
        np.testing.assert_array_equal(oracle.commodity_costs(costs), expected)
        if not np.all(np.isfinite(expected)):
            with pytest.raises(ValueError, match="no path"):
                oracle.shortest_commodity_paths(costs)
            with pytest.raises(ValueError, match="no path"):
                oracle.all_or_nothing(costs)
            return

        paths = oracle.shortest_commodity_paths(costs)
        for commodity, path, cost in zip(oracle.commodities, paths, expected):
            assert_valid_path(oracle, path, commodity, costs, cost)

        demands = np.array([c.demand for c in oracle.commodities])
        load = oracle.all_or_nothing(costs)
        assert load.sptt == pytest.approx(float(demands @ expected), rel=1e-12)
        # Each commodity's own load leaves its source and enters its sink in
        # full, and conserves flow everywhere else.
        total = np.zeros(oracle.num_edges)
        for k, commodity in enumerate(oracle.commodities):
            single = np.zeros(len(demands))
            single[k] = demands[k]
            flows = oracle.all_or_nothing(costs, single).edge_flows
            total += flows
            for node, outflow in net_outflow(oracle, flows).items():
                want = {commodity.source: demands[k], commodity.sink: -demands[k]}
                assert outflow == pytest.approx(want.get(node, 0.0), abs=1e-12)
        np.testing.assert_allclose(load.edge_flows, total, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("congested", [False, True])
    def test_sioux_falls(self, congested):
        network = sioux_falls_network()
        oracle = ShortestPathOracle.for_network(network)
        costs = oracle.free_flow_costs(network)
        if congested:
            rng = np.random.default_rng(7)
            costs = oracle.latency_costs(network, rng.random(oracle.num_edges) * 0.02)
        expected = reference_commodity_costs(oracle, costs)
        np.testing.assert_array_equal(oracle.commodity_costs(costs), expected)
        paths = oracle.shortest_commodity_paths(costs)
        for commodity, path, cost in zip(oracle.commodities, paths, expected):
            assert_valid_path(oracle, path, commodity, costs, cost)
        demands = np.array([c.demand for c in oracle.commodities])
        load = oracle.all_or_nothing(costs)
        assert load.sptt == pytest.approx(float(demands @ expected), rel=1e-12)
        assert load.edge_flows.sum() > 0


class TestParallelArcs:
    @pytest.mark.parametrize(
        "parallel_costs, cheapest_key",
        [([2.0, 1.0, 1.0], 1), ([1.0, 1.0, 1.0], 0), ([3.0, 3.0, 0.5], 2)],
    )
    def test_equal_cost_arcs_resolve_to_lowest_edge_index(
        self, parallel_costs, cheapest_key
    ):
        graph = constant_graph([(0, 1, c) for c in parallel_costs] + [(1, 2, 1.0)])
        oracle = ShortestPathOracle(graph, [Commodity(0, 2, 1.0)])
        costs = oracle.free_flow_costs()
        (path,) = oracle.shortest_commodity_paths(costs)
        assert path.edges == ((0, 1, cheapest_key), (1, 2, 0))
        flows = oracle.all_or_nothing(costs).edge_flows
        assert np.flatnonzero(flows).tolist() == sorted(
            [oracle.edge_index[(0, 1, cheapest_key)], oracle.edge_index[(1, 2, 0)]]
        )

    def test_two_links_instance(self):
        network = get_instance("two-links")  # two parallel s->t edges
        oracle = ShortestPathOracle.for_network(network)
        costs = oracle.free_flow_costs(network)
        (path,) = oracle.shortest_commodity_paths(costs)
        assert len(path.edges) == 1
        assert costs[oracle.edge_index[path.edges[0]]] == costs.min()
        tied = np.full(oracle.num_edges, 1.0)
        (path,) = oracle.shortest_commodity_paths(tied)
        assert path.edges == (oracle.edges[0],)


class TestCentroidSemantics:
    """First-thru-node blocking: centroids start or end paths only."""

    def build(self, commodity):
        # Nodes 0 and 3 are centroids (first_thru_node=4 blocks 0..3 as
        # through nodes); the cheap route 0 -> 3 -> 4 must be forbidden
        # because it passes through centroid 3.
        graph = constant_graph([(0, 3, 1.0), (3, 4, 1.0), (0, 5, 10.0), (5, 4, 10.0)])
        return ShortestPathOracle(graph, [commodity], first_thru_node=4)

    def test_centroid_is_never_passed_through(self):
        oracle = self.build(Commodity(0, 4, 1.0))
        costs = oracle.free_flow_costs()
        assert oracle.commodity_costs(costs)[0] == pytest.approx(20.0)
        (path,) = oracle.shortest_commodity_paths(costs)
        assert all(edge[0] != 3 for edge in path.edges)

    def test_centroid_source_may_leave(self):
        oracle = self.build(Commodity(3, 4, 1.0))
        costs = oracle.free_flow_costs()
        assert oracle.commodity_costs(costs)[0] == pytest.approx(1.0)
        (path,) = oracle.shortest_commodity_paths(costs)
        assert path.edges == ((3, 4, 0),)

    def test_plain_and_centroid_sources_in_one_query(self):
        graph = constant_graph([(0, 3, 1.0), (3, 4, 1.0), (0, 5, 10.0), (5, 4, 10.0)])
        oracle = ShortestPathOracle(
            graph,
            [Commodity(0, 4, 1.0), Commodity(5, 4, 2.0), Commodity(3, 4, 4.0)],
            first_thru_node=4,
        )
        costs = oracle.free_flow_costs()
        np.testing.assert_array_equal(oracle.commodity_costs(costs), [20.0, 10.0, 1.0])
        assert oracle.all_or_nothing(costs).sptt == pytest.approx(20.0 + 20.0 + 4.0)


class TestCostValidation:
    """NaN and negative costs are rejected; +inf stays legal."""

    def build(self):
        graph = constant_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        return ShortestPathOracle(graph, [Commodity(0, 2, 1.0)])

    @pytest.mark.parametrize("query", ["shortest_commodity_paths", "commodity_costs"])
    def test_nan_costs_rejected(self, query):
        # ``costs < 0`` is False for NaN, so a bare negativity check would
        # let NaN through and silently corrupt the Dijkstra distances.
        oracle = self.build()
        costs = oracle.free_flow_costs()
        costs[1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            getattr(oracle, query)(costs)

    @pytest.mark.parametrize("query", ["shortest_commodity_paths", "commodity_costs"])
    def test_negative_costs_rejected(self, query):
        oracle = self.build()
        costs = oracle.free_flow_costs()
        costs[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            getattr(oracle, query)(costs)

    def test_infinite_costs_stay_legal_and_price_edges_out(self):
        # +inf is how closures and centroid out-arcs are priced: the edge
        # must become unusable without tripping the validator.
        oracle = self.build()
        costs = oracle.free_flow_costs()
        costs[oracle.edge_index[(0, 1, 0)]] = np.inf
        (path,) = oracle.shortest_commodity_paths(costs)
        assert path.edges == ((0, 2, 0),)
        assert oracle.commodity_costs(costs)[0] == 5.0
        costs[oracle.edge_index[(0, 2, 0)]] = np.inf
        assert oracle.commodity_costs(costs)[0] == np.inf
        with pytest.raises(ValueError, match="no path from 0 to 2"):
            oracle.all_or_nothing(costs)

    def test_wrong_length_rejected(self):
        oracle = self.build()
        with pytest.raises(ValueError, match="length 2"):
            oracle.commodity_costs(np.ones(2))


# Zones 1-3 are centroids (first thru node 4): every source is a centroid, so
# each query runs one C call per source, and 4 -> 7 is a parallel link pair.
CENTROID_NET = """
<NUMBER OF ZONES> 3
<FIRST THRU NODE> 4
<NUMBER OF LINKS> 17
<END OF METADATA>
1 4 100 1 1 0.15 4 0 0 1 ;
1 2 100 1 1 0.15 4 0 0 1 ;
2 5 100 1 1 0.15 4 0 0 1 ;
2 3 100 1 1 0.15 4 0 0 1 ;
3 6 100 1 1 0.15 4 0 0 1 ;
4 5 100 1 1 0.15 4 0 0 1 ;
5 4 100 1 1 0.15 4 0 0 1 ;
4 6 100 1 1 0.15 4 0 0 1 ;
6 7 100 1 1 0.15 4 0 0 1 ;
7 5 100 1 1 0.15 4 0 0 1 ;
4 7 100 1 1 0.15 4 0 0 1 ;
4 7 100 1 1 0.15 4 0 0 1 ;
5 2 100 1 1 0.15 4 0 0 1 ;
6 3 100 1 1 0.15 4 0 0 1 ;
7 1 100 1 1 0.15 4 0 0 1 ;
4 2 100 1 1 0.15 4 0 0 1 ;
7 3 100 1 1 0.15 4 0 0 1 ;
"""

CENTROID_TRIPS = """
<NUMBER OF ZONES> 3
<TOTAL OD FLOW> 25.0
<END OF METADATA>
Origin 1
2 : 10.0; 3 : 5.0;
Origin 2
1 : 4.0; 3 : 2.0;
Origin 3
1 : 3.0; 2 : 1.0;
"""

PARALLEL_ARCS = [
    (0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (2, 3), (2, 3), (1, 3),
    (3, 4), (2, 4), (2, 4), (4, 5), (3, 5), (5, 0), (4, 1),
]
PARALLEL_PAIRS = [(0, 3), (0, 5), (1, 4), (1, 5), (2, 5), (0, 4)]


def one_row_union(oracle, costs):
    """The paths ``add_paths`` keeps from one query per cost row, in order."""
    union = []
    for row in costs:
        for path in oracle.shortest_commodity_paths(row):
            if path not in union:
                union.append(path)
    return union


class TestStackedCostRows:
    """An ``(R, E)`` query is R one-row queries in one walk."""

    @pytest.fixture(scope="class", params=["parallel-arcs", "tntp-centroids"])
    def oracle(self, request):
        if request.param == "parallel-arcs":
            graph = constant_graph([(u, v, 1.0) for u, v in PARALLEL_ARCS])
            commodities = [Commodity(s, t, 1.0 + k) for k, (s, t) in enumerate(PARALLEL_PAIRS)]
            return ShortestPathOracle(graph, commodities)
        return ShortestPathOracle.for_network(load_tntp_from_text(CENTROID_NET, CENTROID_TRIPS))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_stack_is_the_first_appearance_union_of_its_rows(self, oracle, data):
        num_rows = data.draw(st.integers(min_value=1, max_value=4))
        # Few distinct finite costs, so rows often share paths and tie.
        finite = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.25])
        costs = np.array(
            data.draw(
                st.lists(
                    st.lists(finite, min_size=oracle.num_edges, max_size=oracle.num_edges),
                    min_size=num_rows,
                    max_size=num_rows,
                )
            )
        )
        closures = st.tuples(
            st.integers(0, num_rows - 1), st.integers(0, oracle.num_edges - 1)
        )
        for row, edge in data.draw(st.lists(closures, max_size=3)):
            costs[row, edge] = np.inf

        distances = oracle.commodity_costs(costs)
        np.testing.assert_array_equal(distances, [oracle.commodity_costs(row) for row in costs])
        unreachable = ~np.isfinite(distances)
        if unreachable.any():
            row = int(np.flatnonzero(unreachable.any(axis=1))[0])
            with pytest.raises(ValueError, match=rf"in cost row {row}$") as raised:
                oracle.shortest_commodity_paths(costs)
            named = re.match(r"no path from (.+) to (.+) in cost row", str(raised.value))
            assert named.groups() in {
                (repr(c.source), repr(c.sink))
                for c, bad in zip(oracle.commodities, unreachable[row])
                if bad
            }
            return

        assert oracle.shortest_commodity_paths(costs) == one_row_union(oracle, costs)
        demands = np.array([c.demand for c in oracle.commodities])
        for row in costs:
            expected = np.zeros(oracle.num_edges)
            for path, demand in zip(oracle.shortest_commodity_paths(row), demands):
                for edge in path.edges:
                    expected[oracle.edge_index[edge]] += demand
            load = oracle.all_or_nothing(row)
            np.testing.assert_allclose(load.edge_flows, expected, rtol=1e-12, atol=0.0)
            assert load.sptt == pytest.approx(float(demands @ oracle.commodity_costs(row)), rel=1e-12)

    def test_all_or_nothing_takes_one_cost_vector(self, oracle):
        costs = oracle.free_flow_costs()
        with pytest.raises(ValueError, match=r"one \(E,\) cost vector"):
            oracle.all_or_nothing(np.stack([costs, costs]))

    def test_costs_must_be_a_vector_or_a_stack(self, oracle):
        with pytest.raises(ValueError, match="stack"):
            oracle.commodity_costs(np.ones((1, 1, oracle.num_edges)))
