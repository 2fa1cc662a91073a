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
measurements the convergence-time benchmarks report, each once over
``(..., P)`` flows of one network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .flow import FlowVector
from .latency import ordered_sum
from .network import WardropNetwork


def is_wardrop_equilibrium(flow: FlowVector, tolerance: float = 1e-6) -> bool:
    """Return ``True`` if ``flow`` is a Wardrop equilibrium up to ``tolerance``.

    The check applies Definition 1 commodity by commodity: every path
    carrying more than ``tolerance`` flow must have latency within
    ``tolerance`` of the commodity's minimum path latency.
    """
    return equilibrium_violation(flow) <= tolerance


def equilibrium_violation(flow: FlowVector) -> float:
    """Return the one-row :func:`equilibrium_violations`."""
    return float(equilibrium_violations(flow.network, flow.values()))


def unsatisfied_volume(flow: FlowVector, delta: float) -> float:
    """Return the one-row :func:`unsatisfied_volumes`."""
    return float(unsatisfied_volumes(flow.network, flow.values(), delta))


def weakly_unsatisfied_volume(flow: FlowVector, delta: float) -> float:
    """Return the one-row :func:`weakly_unsatisfied_volumes`."""
    return float(weakly_unsatisfied_volumes(flow.network, flow.values(), delta))


# Each measure takes ``(..., P)`` flows of one network and returns one value
# per row.  Per-commodity quantities live on the padded ``(..., C, K)``
# commodity blocks, and volumes are added commodity by commodity, in order.


def _commodity_blocks(network: WardropNetwork, flows: np.ndarray, latencies=None):
    """Return flows and path latencies as padded ``(..., C, K)`` blocks, and ``l^i_min``."""
    blocks = network.paths.blocks
    flows = np.asarray(flows, dtype=float)
    if latencies is None:
        latencies = network.path_latencies(flows)
    latencies = blocks.gather(latencies)
    minimum = np.where(blocks.valid, latencies, np.inf).min(axis=-1, keepdims=True)
    return blocks.gather(flows), latencies, minimum


def equilibrium_violations(
    network: WardropNetwork,
    flows: np.ndarray,
    latencies: Optional[np.ndarray] = None,
    threshold: float = 1e-9,
) -> np.ndarray:
    """Return the largest gap ``l_P - l^i_min`` over paths carrying more than ``threshold``.

    Zero exactly at Wardrop equilibria; continuous in the flow, which makes
    it a convenient convergence measure.  ``latencies`` are the ``(..., P)``
    path latencies to judge the flows by; by default they are priced on
    ``network``.
    """
    flows, latencies, minimum = _commodity_blocks(network, flows, latencies)
    return np.where(flows > threshold, latencies - minimum, 0.0).max(axis=(-2, -1))


def unsatisfied_volumes(network: WardropNetwork, flows: np.ndarray, delta: float) -> np.ndarray:
    """Return the volume of ``delta``-unsatisfied agents (Definition 3).

    An agent on path ``P`` of commodity ``i`` is ``delta``-unsatisfied iff
    ``l_P(f) > l^i_min + delta``.
    """
    flows, latencies, minimum = _commodity_blocks(network, flows)
    unsatisfied = np.where(latencies > minimum + delta, flows, 0.0)
    return ordered_sum(unsatisfied.sum(axis=-1))


def weakly_unsatisfied_volumes(
    network: WardropNetwork, flows: np.ndarray, delta: float
) -> np.ndarray:
    """Return the volume of weakly ``delta``-unsatisfied agents (Definition 4).

    Agents are weakly ``delta``-unsatisfied iff their path latency exceeds
    the *average* latency ``L_i`` of their commodity by more than ``delta``.
    """
    flows, latencies, _ = _commodity_blocks(network, flows)
    averages = ordered_sum(flows * latencies)[..., None] / network.commodity_demands[:, None]
    # Padding slots carry no flow, so they add nothing.
    unsatisfied = np.where(latencies > averages + delta, flows, 0.0)
    return ordered_sum(unsatisfied.sum(axis=-1))


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
