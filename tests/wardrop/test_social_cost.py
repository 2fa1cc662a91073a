"""Unit tests for social cost, optimal flow and price of anarchy."""

from __future__ import annotations

import pytest

from repro.instances import braess_network, get_instance, pigou_network, pigou_optimal_cost
from repro.wardrop import (
    FlowVector,
    MarginalCostLatency,
    LinearLatency,
    marginal_cost_network,
    optimal_flow,
    price_of_anarchy,
    social_cost,
)


class TestSocialCost:
    def test_matches_average_latency(self, braess):
        flow = FlowVector.uniform(braess)
        assert social_cost(flow) == pytest.approx(flow.average_latency())

    def test_pigou_equilibrium_cost_is_one(self, pigou):
        flow = FlowVector(pigou, [0.0, 1.0])
        assert social_cost(flow) == pytest.approx(1.0)


class TestMarginalCost:
    def test_linear_marginal_cost_doubles_slope(self):
        transformed = MarginalCostLatency(LinearLatency(2.0))
        assert transformed.value(0.5) == pytest.approx(2.0)  # 2x at x=0.5 -> 1 + 1
        assert transformed.integral(0.5) == pytest.approx(0.5 * 1.0)

    def test_marginal_cost_network_preserves_structure(self, pigou):
        twin = marginal_cost_network(pigou)
        assert twin.num_paths == pigou.num_paths
        assert twin.num_edges == pigou.num_edges


class TestOptimum:
    def test_pigou_linear_optimum(self):
        network = pigou_network(degree=1)
        optimum = optimal_flow(network)
        # Known optimum: half the traffic on the variable link.
        assert optimum.values()[1] == pytest.approx(0.5, abs=1e-3)
        assert social_cost(optimum) == pytest.approx(pigou_optimal_cost(1), abs=1e-3)

    def test_pigou_linear_price_of_anarchy(self):
        network = pigou_network(degree=1)
        cost_eq, cost_opt, ratio = price_of_anarchy(network)
        assert cost_eq == pytest.approx(1.0, abs=1e-3)
        assert cost_opt == pytest.approx(0.75, abs=1e-3)
        assert ratio == pytest.approx(4.0 / 3.0, abs=1e-2)

    def test_braess_price_of_anarchy(self):
        network = braess_network(with_shortcut=True)
        cost_eq, cost_opt, ratio = price_of_anarchy(network)
        assert cost_eq == pytest.approx(2.0, abs=1e-9)
        assert cost_opt == pytest.approx(1.5, abs=1e-9)
        assert ratio == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_an_uncertified_optimum_raises_naming_the_network_and_the_gap(self):
        # The marginal-cost twin keeps the instance's name for the error.
        with pytest.raises(RuntimeError, match=r"grid-3x3: duality gap [0-9.e-]+ > tolerance"):
            optimal_flow(get_instance("grid-3x3"), max_iterations=1)
