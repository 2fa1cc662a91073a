"""Wardrop equilibria and the paper's approximate-equilibrium notions.

Definition 1 of the paper: a feasible flow ``f`` is a *Wardrop equilibrium*
iff for every commodity ``i`` and every pair of paths ``P, P' in P_i`` with
``f_P > 0`` it holds that ``l_P(f) <= l_{P'}(f)`` -- no used path is worse
than any alternative.

Because the adaptive dynamics never reaches an exact equilibrium in finite
time, the paper relaxes the notion in two ways (Definitions 3 and 4):

* ``(delta, eps)``-equilibrium -- the volume of agents whose latency exceeds
  the *minimum* latency of their commodity by more than ``delta`` is at most
  ``eps``;
* weak ``(delta, eps)``-equilibrium -- as above but measured against the
  *average* latency ``L_i`` of the commodity.

Every ``(delta, eps)``-equilibrium is also a weak one.  This module
implements exact and approximate predicates plus the "unsatisfied volume"
measurements the convergence-time benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .flow import FlowVector


def is_wardrop_equilibrium(flow: FlowVector, tolerance: float = 1e-6) -> bool:
    """Return ``True`` if ``flow`` is a Wardrop equilibrium up to ``tolerance``.

    The check applies Definition 1 commodity by commodity: every path
    carrying more than ``tolerance`` flow must have latency within
    ``tolerance`` of the commodity's minimum path latency.
    """
    return equilibrium_violation(flow) <= tolerance


def equilibrium_violation(flow: FlowVector) -> float:
    """Return the largest gap ``l_P - l^i_min`` over used paths.

    Zero exactly at Wardrop equilibria; continuous in the flow, which makes
    it a convenient convergence measure for tests.
    """
    blocks = flow.network.paths.blocks
    latencies = blocks.gather(flow.path_latencies())
    minimum = np.where(blocks.valid, latencies, np.inf).min(axis=-1, keepdims=True)
    used = blocks.gather(flow.values()) > 1e-9
    return float(np.where(used, latencies - minimum, 0.0).max())


def unsatisfied_volume(flow: FlowVector, delta: float) -> float:
    """Return the volume of ``delta``-unsatisfied agents (Definition 3).

    An agent on path ``P`` of commodity ``i`` is ``delta``-unsatisfied iff
    ``l_P(f) > l^i_min + delta``; the function sums the flow on all such
    paths.
    """
    blocks = flow.network.paths.blocks
    latencies = blocks.gather(flow.path_latencies())
    minimum = np.where(blocks.valid, latencies, np.inf).min(axis=-1, keepdims=True)
    unsatisfied = np.where(latencies > minimum + delta, blocks.gather(flow.values()), 0.0)
    # A Python sum adds the commodities' volumes one by one, in order.
    return float(sum(unsatisfied.sum(axis=-1).tolist()))


def weakly_unsatisfied_volume(flow: FlowVector, delta: float) -> float:
    """Return the volume of weakly ``delta``-unsatisfied agents (Definition 4).

    Agents are weakly ``delta``-unsatisfied iff their path latency exceeds
    the *average* latency ``L_i`` of their commodity by more than ``delta``.
    """
    network = flow.network
    latencies = flow.path_latencies()
    flows = flow.values()
    volume = 0.0
    for i in range(network.num_commodities):
        indices = np.fromiter(network.paths.commodity_indices(i), dtype=int)
        commodity_latencies = latencies[indices]
        demand = network.commodities[i].demand
        average = float(np.dot(flows[indices], commodity_latencies) / demand)
        unsatisfied = commodity_latencies > average + delta
        volume += float(flows[indices][unsatisfied].sum())
    return volume


def is_approximate_equilibrium(flow: FlowVector, delta: float, eps: float) -> bool:
    """Return ``True`` iff ``flow`` is at a ``(delta, eps)``-equilibrium."""
    return unsatisfied_volume(flow, delta) <= eps


def is_weak_approximate_equilibrium(flow: FlowVector, delta: float, eps: float) -> bool:
    """Return ``True`` iff ``flow`` is at a weak ``(delta, eps)``-equilibrium."""
    return weakly_unsatisfied_volume(flow, delta) <= eps


@dataclass(frozen=True)
class EquilibriumReport:
    """A summary of how close a flow is to Wardrop equilibrium."""

    violation: float
    unsatisfied: float
    weakly_unsatisfied: float
    average_latency: float
    max_used_latency: float
    delta: float

    def describe(self) -> str:
        return (
            f"violation={self.violation:.4g}, "
            f"unsatisfied(delta={self.delta})={self.unsatisfied:.4g}, "
            f"weakly={self.weakly_unsatisfied:.4g}, "
            f"L={self.average_latency:.4g}, max_used={self.max_used_latency:.4g}"
        )


def report(flow: FlowVector, delta: float = 0.0) -> EquilibriumReport:
    """Return an :class:`EquilibriumReport` for the given flow."""
    return EquilibriumReport(
        violation=equilibrium_violation(flow),
        unsatisfied=unsatisfied_volume(flow, delta),
        weakly_unsatisfied=weakly_unsatisfied_volume(flow, delta),
        average_latency=flow.average_latency(),
        max_used_latency=flow.max_used_latency(),
        delta=delta,
    )


def support(flow: FlowVector, threshold: float = 1e-9) -> List[int]:
    """Return the indices of paths carrying more than ``threshold`` flow."""
    return [int(i) for i in np.nonzero(flow.values() > threshold)[0]]
