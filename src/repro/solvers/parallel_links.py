"""Exact equilibrium solver for single-commodity parallel-link networks.

Parallel-link networks (one source, one sink, ``m`` parallel edges) are the
workhorse instances of the paper's analysis -- the oscillation example of
Section 3.2 is the two-link case -- and they admit an exact equilibrium
characterisation: at a Wardrop equilibrium there is a common latency level
``lambda`` such that every used link has latency exactly ``lambda`` and every
unused link has latency at least ``lambda``.  Because each link latency is
non-decreasing, the amount of flow a link absorbs at level ``lambda`` is a
non-decreasing function of ``lambda``; the equilibrium level is found by
bisection on ``lambda`` (a "water-filling" argument).

This solver is used as an independent ground truth to cross-check the
path-space solver and the adaptive dynamics on the instance families used
in the benchmarks.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..wardrop.flow import FlowVector
from ..wardrop.latency import LatencyFunction
from ..wardrop.network import WardropNetwork


def _is_parallel_link_network(network: WardropNetwork) -> bool:
    """Return True if the instance is single-commodity with single-edge paths."""
    if network.num_commodities != 1:
        return False
    return all(len(path) == 1 for path in network.paths)


def _flow_absorbed_at_level(latency: LatencyFunction, level: float, tolerance: float = 1e-12) -> float:
    """Return the largest flow ``x in [0, 1]`` with ``latency(x) <= level``.

    Monotonicity of the latency makes this a bisection on ``x``.
    """
    if latency.value(0.0) > level:
        return 0.0
    if latency.value(1.0) <= level:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if latency.value(mid) <= level:
            lo = mid
        else:
            hi = mid
    return lo


def solve_parallel_links(network: WardropNetwork, tolerance: float = 1e-12) -> FlowVector:
    """Return the exact Wardrop equilibrium of a parallel-link network.

    Raises ``ValueError`` if the network is not a single-commodity
    parallel-link instance (every path one edge long).
    """
    if not _is_parallel_link_network(network):
        raise ValueError("solve_parallel_links requires a single-commodity parallel-link network")
    demand = network.commodities[0].demand
    latencies: List[LatencyFunction] = [
        network.latency_function(path.edges[0]) for path in network.paths
    ]

    def routed_at_level(level: float) -> float:
        return sum(_flow_absorbed_at_level(latency, level) for latency in latencies)

    # Bracket the equilibrium latency level.
    lo = min(latency.value(0.0) for latency in latencies)
    hi = max(latency.value(1.0) for latency in latencies)
    if routed_at_level(lo) >= demand:
        level = lo
    else:
        for _ in range(200):
            if hi - lo <= tolerance * max(1.0, abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if routed_at_level(mid) >= demand:
                hi = mid
            else:
                lo = mid
        level = hi

    # Distribute the demand: links with value(0) < level are filled to their
    # absorption point; links exactly at the level absorb the remainder.
    flows = np.array([_flow_absorbed_at_level(latency, level) for latency in latencies])
    total = flows.sum()
    if total <= 0:
        flows = np.full(len(latencies), demand / len(latencies))
    else:
        flows *= demand / total
    return FlowVector(network, flows).projected()


def equilibrium_latency_level(network: WardropNetwork, tolerance: float = 1e-12) -> float:
    """Return the common latency level of the parallel-link equilibrium."""
    flow = solve_parallel_links(network, tolerance=tolerance)
    latencies = flow.path_latencies()
    used = flow.values() > 1e-9
    if not used.any():
        return float(latencies.min())
    return float(latencies[used].max())
