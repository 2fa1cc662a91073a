"""Path-based projection-gradient solver for enumerable instances.

Frank--Wolfe moves along segments towards all-or-nothing vertices, which
zig-zags near optimality; the classical path-based alternative (Jayakrishnan
et al.'s gradient projection, the workhorse of path-based traffic
assignment) instead shifts flow *within each commodity* directly onto its
cheapest path, scaling every shift by the second-order information the
Beckmann objective exposes for free:

    shift_P = (c_P - c_B) / sum_{e in P xor B} l_e'(f_e)

where ``B`` is the commodity's cheapest (basic) path and the denominator
sums the latency slopes over the edges by which ``P`` and ``B`` differ -- a
diagonal-Newton step in the per-commodity simplex.  Shifts are clipped at
the available path flow (the projection), and a backtracking guard halves
the step scale whenever a full sweep would increase the Beckmann potential
(curvature grows with congestion, so the unit Newton step can overshoot).
Near convergence the true decrease falls below the rounding of the
potential, so a sweep is also accepted when the potential's slope along the
step, taken at the candidate, is not positive -- by convexity the potential
then did not rise.

The solver needs the enumerated path set (the state is one number per path),
so it complements -- not replaces -- the oracle-driven edge-space methods of
:mod:`repro.solvers.edge_frank_wolfe`: use it on enumerable instances where
per-path flows are wanted, use CFW/BFW on road networks.

Convergence is certified by the same Frank--Wolfe duality gap as
:func:`~repro.solvers.frank_wolfe.solve_wardrop_equilibrium`, so results of
the two path-space methods are directly comparable.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.potential import potential, potential_of_edge_flows
from .frank_wolfe import EquilibriumResult, all_or_nothing_flow

# Derivative sums can vanish on all-constant-latency instances; the shift
# then has no curvature to scale by and falls back to moving the whole
# excess flow (clipped at feasibility, so still a valid projection).
MIN_CURVATURE = 1e-12

# The backtracking guard halves the sweep scale at most this many times per
# iteration before accepting the (tiny) step anyway.
MAX_BACKTRACKS = 30


def _sweep(
    network: WardropNetwork,
    flow: np.ndarray,
    costs: np.ndarray,
    derivatives: np.ndarray,
    scale: float,
) -> np.ndarray:
    """One gradient-projection sweep: shift every commodity onto its basic path.

    All shifts are computed from the same snapshot (``costs`` /
    ``derivatives`` at ``flow``), which keeps the sweep deterministic and
    independent of commodity order.
    """
    incidence = network.incidence
    result = flow.copy()
    for i in range(network.num_commodities):
        indices = np.fromiter(network.paths.commodity_indices(i), dtype=int)
        if len(indices) < 2:
            continue
        local_costs = costs[indices]
        basic_local = int(np.argmin(local_costs))
        basic = indices[basic_local]
        columns = incidence[:, indices]
        # Curvature over the symmetric difference with the basic path:
        # incidence entries are 0/1, so |column - basic column| marks
        # exactly the edges the two routes do not share.
        difference = np.abs(columns - columns[:, [basic_local]])
        curvature = derivatives @ difference
        excess = local_costs - local_costs[basic_local]
        shifts = np.where(
            curvature > MIN_CURVATURE,
            scale * excess / np.maximum(curvature, MIN_CURVATURE),
            np.where(excess > 0.0, np.inf, 0.0),
        )
        shifts = np.minimum(shifts, flow[indices])
        shifts[basic_local] = 0.0
        result[indices] -= shifts
        result[basic] += float(shifts.sum())
    return result


def solve_path_projection_gradient(
    network: WardropNetwork,
    tolerance: float = 1e-8,
    max_iterations: int = 2000,
    initial: Optional[FlowVector] = None,
) -> EquilibriumResult:
    """Compute a Wardrop equilibrium by path-based gradient projection.

    Parameters mirror :func:`~repro.solvers.frank_wolfe.solve_wardrop_equilibrium`:
    ``tolerance`` is the absolute Frank--Wolfe duality gap (same certificate,
    so tolerances carry over), ``max_iterations`` caps the sweeps and
    ``initial`` warm-starts from a feasible flow (default: uniform split).
    """
    flow = (FlowVector.uniform(network) if initial is None else initial).values()
    gap_history: List[float] = []
    converged = False
    iterations = 0
    scale = 1.0
    value = potential_of_edge_flows(network, network.edge_flows(flow))
    for iterations in range(1, max_iterations + 1):
        edge_flows = network.edge_flows(flow)
        edge_latencies = network.edge_latencies(edge_flows)
        costs = network.path_latencies_from_edge_latencies(edge_latencies)
        target = all_or_nothing_flow(network, costs)
        gap = float(np.dot(costs, flow - target))
        gap_history.append(gap)
        if gap <= tolerance:
            converged = True
            break
        derivatives = network.edge_latency_derivatives(edge_flows)
        for _ in range(MAX_BACKTRACKS):
            candidate = _sweep(network, flow, costs, derivatives, scale)
            candidate_value = potential_of_edge_flows(network, network.edge_flows(candidate))
            if candidate_value <= value:
                break
            if np.dot(network.path_latencies(candidate), candidate - flow) <= 0.0:
                break
            scale *= 0.5
        flow = candidate
        value = candidate_value
        # Re-open the step for the next sweep; congestion-driven curvature
        # changes, so a permanently shrunk scale would crawl.
        scale = min(1.0, scale * 2.0)
    result_flow = FlowVector(network, flow).projected()
    final_costs = network.path_latencies(result_flow.values())
    final_target = all_or_nothing_flow(network, final_costs)
    final_gap = float(np.dot(final_costs, result_flow.values() - final_target))
    return EquilibriumResult(
        flow=result_flow,
        potential_value=potential(result_flow),
        duality_gap=final_gap,
        iterations=iterations,
        converged=converged or final_gap <= tolerance,
        gap_history=gap_history,
        method="pg",
    )
