"""The paper's two-link oscillation instance (Section 3.2).

Two parallel links between a single source and sink, each with latency
``l(x) = max{0, beta * (x - 1/2)}`` and unit demand.  The Wardrop equilibrium
splits the demand evenly, ``f_1 = f_2 = 1/2``, at latency zero.

Under the best-response dynamics with bulletin-board updates every ``T`` time
units the paper shows that the initial condition

    f_1(0) = 1 / (exp(-T) + 1),    f_2(0) = exp(-T) / (exp(-T) + 1)

is a period-``2T`` oscillation: the flow overshoots the equilibrium in every
phase and returns exactly to its starting point every other phase.  The
latency observed at the start of each phase is

    X = beta * (1 - exp(-T)) / (2 * exp(-T) + 2),

which can only be pushed below ``eps`` by making ``T = O(eps / beta)``.
These closed forms live in :mod:`repro.core.bounds`; this module builds the
instance and its special starting flows.
"""

from __future__ import annotations

from ..core.bounds import oscillation_fixed_point
from ..wardrop.commodity import Commodity
from ..wardrop.flow import FlowVector
from ..wardrop.latency import ThresholdLatency
from ..wardrop.network import WardropNetwork


def two_link_network(beta: float = 1.0, threshold: float = 0.5) -> WardropNetwork:
    """Build the two-parallel-link instance with slope ``beta``.

    Both links carry the latency ``max{0, beta * (x - threshold)}``; the
    default ``threshold = 1/2`` is the paper's construction.
    """
    latency_a = ThresholdLatency(beta=beta, threshold=threshold)
    latency_b = ThresholdLatency(beta=beta, threshold=threshold)
    return WardropNetwork.from_edges(
        [("s", "t", latency_a), ("s", "t", latency_b)],
        [Commodity("s", "t", 1.0, name="oscillation")],
    )


def oscillation_initial_flow(network: WardropNetwork, update_period: float) -> FlowVector:
    """Return the paper's oscillating initial condition for update period ``T``.

    ``f_1(0) = 1 / (e^{-T} + 1)`` on the first link and the remainder on the
    second.  Starting best response from this flow produces a cycle of period
    exactly ``2T``.
    """
    first = oscillation_fixed_point(update_period)
    return FlowVector(network, [first, 1.0 - first])


def equilibrium_flow(network: WardropNetwork) -> FlowVector:
    """Return the exact Wardrop equilibrium of the two-link instance."""
    return FlowVector(network, [0.5, 0.5])


def lopsided_flow(network: WardropNetwork, fraction_on_first: float = 0.9) -> FlowVector:
    """Return a flow placing ``fraction_on_first`` of the demand on link one.

    A convenient non-equilibrium starting point for convergence experiments.
    """
    if not 0.0 <= fraction_on_first <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    return FlowVector(network, [fraction_on_first, 1.0 - fraction_on_first])
