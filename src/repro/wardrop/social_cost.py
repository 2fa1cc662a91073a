"""Social cost, optimal flow and the price of anarchy.

The paper's motivation sits in the selfish-routing literature (Roughgarden &
Tardos): the social cost of a flow is its average latency
``C(f) = sum_P f_P * l_P(f) = sum_e f_e * l_e(f_e)``, and the *price of
anarchy* compares the cost at Wardrop equilibrium with the minimum possible
cost.  These quantities are not needed by the convergence theorems but are
standard outputs of a Wardrop toolkit, are exercised by the Pigou/Braess
example applications, and give the benchmarks a cost axis in addition to the
potential axis.

The socially optimal flow is computed by observing the classical
correspondence (also cited in the paper, Section 1.2): a flow minimises the
social cost iff it is a Wardrop equilibrium with respect to the *marginal
cost* latencies ``l_e(x) + x * l_e'(x)``.  We therefore reuse the path-space
equilibrium solver on a marginal-cost twin of the network.  Both solves must
meet their duality-gap tolerance, or the functions below raise: an
uncertified optimum would make the price of anarchy silently wrong.
"""

from __future__ import annotations

from typing import Hashable, Tuple

import networkx as nx
import numpy as np

from .flow import FlowVector
from .latency import LatencyFunction
from .network import LATENCY_ATTR, WardropNetwork


def social_cost(flow: FlowVector) -> float:
    """Return the total/average latency ``C(f) = sum_e f_e * l_e(f_e)``.

    With demands normalised to one this equals the average latency ``L``.
    """
    edge_flows = flow.edge_flows()
    edge_latencies = flow.edge_latencies()
    return float(np.dot(edge_flows, edge_latencies))


class MarginalCostLatency(LatencyFunction):
    """The marginal-cost transform ``h(x) = l(x) + x * l'(x)`` of a latency.

    The antiderivative of ``h`` is ``x * l(x)`` which is exactly the edge's
    contribution to the social cost, so minimising the Beckmann potential of
    the transformed network minimises the social cost of the original one.

    The transform assumes ``l`` is convex and differentiable, which holds for
    every class in :mod:`repro.wardrop.latency`; the derivative of ``h`` is
    approximated by a symmetric finite difference since the second derivative
    of ``l`` is not exposed.
    """

    def __init__(self, base: LatencyFunction):
        self.base = base

    def value(self, x: float) -> float:
        return self.base.value(x) + x * self.base.derivative(x)

    def derivative(self, x: float, step: float = 1e-6) -> float:
        lo = max(0.0, x - step)
        hi = min(1.0, x + step)
        if hi <= lo:
            return 0.0
        return (self.value(hi) - self.value(lo)) / (hi - lo)

    def integral(self, x: float) -> float:
        return x * self.base.value(x)

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # h'(x) = 2 l'(x) + x l''(x); bound it coarsely by sampling.
        samples = np.linspace(lo, hi, 17)
        return float(max(self.derivative(float(x)) for x in samples))

    def __repr__(self) -> str:
        return f"MarginalCostLatency({self.base!r})"


def marginal_cost_network(network: WardropNetwork) -> WardropNetwork:
    """Return a copy of the network with marginal-cost latencies.

    A Wardrop equilibrium of the returned network is a social optimum of the
    original network.  The twin keeps the graph attributes, so a solver
    error names the same instance.
    """
    graph = nx.MultiDiGraph(**network.graph.graph)
    graph.add_nodes_from(network.graph.nodes())
    for u, v, key in network.graph.edges(keys=True):
        # Resolved through latency_function (not the raw graph attribute) so
        # the per-edge overrides of `with_latencies` clones are honoured.
        latency = network.latency_function((u, v, key))
        graph.add_edge(u, v, key=key, **{LATENCY_ATTR: MarginalCostLatency(latency)})
    return WardropNetwork(graph, network.commodities, normalise=False)


def optimal_flow(network: WardropNetwork, tolerance: float = 1e-8, max_iterations: int = 2000) -> FlowVector:
    """Return the socially optimal flow, certified to the duality-gap ``tolerance``."""
    from ..solvers.projection_gradient import certified_equilibrium

    twin = marginal_cost_network(network)
    result = certified_equilibrium(twin, tolerance, max_iterations)
    return FlowVector(network, result.flow.values())


def price_of_anarchy(network: WardropNetwork, tolerance: float = 1e-8) -> Tuple[float, float, float]:
    """Return ``(equilibrium_cost, optimal_cost, ratio)`` for the network.

    The ratio is the empirical price of anarchy of the instance.  Returns
    ``ratio = 1.0`` when the optimal cost is zero (both costs are then zero
    as well for non-negative latencies).  Both flows are certified to the
    duality-gap ``tolerance``, or this raises.
    """
    from ..solvers.projection_gradient import certified_equilibrium

    equilibrium = certified_equilibrium(network, tolerance).flow
    optimum = optimal_flow(network, tolerance=tolerance)
    cost_eq = social_cost(equilibrium)
    cost_opt = social_cost(optimum)
    if cost_opt <= 1e-15:
        return cost_eq, cost_opt, 1.0
    return cost_eq, cost_opt, cost_eq / cost_opt
