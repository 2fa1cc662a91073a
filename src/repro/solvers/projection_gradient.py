"""Path-space Wardrop equilibria by path-based projection gradient.

The Beckmann--McGuire--Winsten potential ``Phi`` is convex in the edge flows
and is minimised exactly at the Wardrop equilibria.  On enumerable instances
the state is one number per path, and the classical path-based algorithm
(Jayakrishnan et al.'s gradient projection, the workhorse of path-based
traffic assignment) shifts flow *within each commodity* directly onto its
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
then did not rise.  Unlike Frank--Wolfe, which moves towards all-or-nothing
vertices, the shifts do not zig-zag near the boundary of the simplex.

Convergence is certified by the duality gap ``sum_P c_P(f) (f_P - y_P)``
against the all-or-nothing flow ``y`` at the current costs, which
upper-bounds ``Phi(f) - Phi*``.  :func:`optimal_potential` returns ``Phi*``
only with that certificate and raises otherwise.  Road networks, where
paths cannot be enumerated, use the oracle-driven edge-space methods of
:mod:`repro.solvers.edge_frank_wolfe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.potential import potential, potentials
from ..wardrop.validation import require_nonnegative, require_positive_integer

# Derivative sums can vanish on all-constant-latency instances; the shift
# then has no curvature to scale by and falls back to moving the whole
# excess flow (clipped at feasibility, so still a valid projection).
MIN_CURVATURE = 1e-12

# The backtracking guard halves the sweep scale at most this many times per
# iteration before accepting the (tiny) step anyway.
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class EquilibriumResult:
    """The output of the path-space solver.

    Attributes
    ----------
    flow:
        The (approximate) Wardrop-equilibrium flow.
    potential_value:
        The Beckmann potential at the returned flow.
    duality_gap:
        The duality gap of the returned flow; an upper bound on
        ``Phi(f) - Phi*``.
    iterations:
        Number of solver iterations: each checks the gap, then sweeps
        unless the gap met the tolerance.
    converged:
        Whether the returned flow's duality gap meets the tolerance.
    gap_history:
        The duality gap at every check (useful for diagnostics).
    """

    flow: FlowVector
    potential_value: float
    duality_gap: float
    iterations: int
    converged: bool
    gap_history: List[float]


def all_or_nothing_flow(network: WardropNetwork, path_latencies: np.ndarray) -> np.ndarray:
    """Return the all-or-nothing path flow for given path latencies.

    Each commodity places its entire demand on (one of) its minimum-latency
    paths.  Ties are broken by the first index, which keeps the solver
    deterministic.
    """
    blocks = network.paths.blocks
    latencies = np.where(blocks.valid, blocks.gather(path_latencies), np.inf)
    target = np.zeros(blocks.shape)
    target[np.arange(blocks.shape[0]), latencies.argmin(axis=-1)] = network.commodity_demands
    return blocks.scatter(target)


def duality_gap(network: WardropNetwork, flows: np.ndarray) -> float:
    """Return the duality gap of a path-flow vector against its all-or-nothing flow."""
    latencies = network.path_latencies(flows)
    target = all_or_nothing_flow(network, latencies)
    return float(np.dot(latencies, flows - target))


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


def solve_wardrop_equilibrium(
    network: WardropNetwork,
    tolerance: float = 1e-8,
    max_iterations: int = 2000,
    initial: Optional[FlowVector] = None,
) -> EquilibriumResult:
    """Compute a Wardrop equilibrium of ``network`` by path-based gradient projection.

    Parameters
    ----------
    network:
        The instance to solve; its path set must be enumerated.
    tolerance:
        Target duality gap (absolute, in latency x flow units); 0 sweeps
        until the computed gap is not positive or the cap is hit.
    max_iterations:
        Sweep cap; the result reports whether the tolerance was met.
    initial:
        Optional warm-start flow; defaults to the uniform split.  The check
        is an explicit ``is None`` -- a warm start is honoured even when its
        truthiness is degenerate (``FlowVector.__len__`` makes empty vectors
        falsy, which an ``or`` default would silently drop).
    """
    require_nonnegative("tolerance", tolerance)
    require_positive_integer("max_iterations", max_iterations)
    flow = (FlowVector.uniform(network) if initial is None else initial).values()
    gap_history: List[float] = []
    scale = 1.0
    value = float(potentials(network, flow))
    for iterations in range(1, int(max_iterations) + 1):
        edge_flows = network.edge_flows(flow)
        edge_latencies = network.edge_latencies(edge_flows)
        costs = network.path_latencies_from_edge_latencies(edge_latencies)
        target = all_or_nothing_flow(network, costs)
        gap = float(np.dot(costs, flow - target))
        gap_history.append(gap)
        if gap <= tolerance:
            break
        derivatives = network.edge_latency_derivatives(edge_flows)
        for _ in range(MAX_BACKTRACKS):
            candidate = _sweep(network, flow, costs, derivatives, scale)
            candidate_value = float(potentials(network, candidate))
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
    final_gap = duality_gap(network, result_flow.values())
    return EquilibriumResult(
        flow=result_flow,
        potential_value=potential(result_flow),
        duality_gap=final_gap,
        iterations=iterations,
        converged=final_gap <= tolerance,
        gap_history=gap_history,
    )


def certified_equilibrium(
    network: WardropNetwork, tolerance: float, max_iterations: int = 2000
) -> EquilibriumResult:
    """Solve ``network`` and raise unless the returned flow's gap meets ``tolerance``.

    The error names the network (its registry name, else its shape) and the
    gap reached, so an uncertified ``Phi*`` never reaches a caller.
    """
    result = solve_wardrop_equilibrium(
        network, tolerance=tolerance, max_iterations=max_iterations
    )
    if not result.converged:
        name = network.graph.graph.get("name") or repr(network)
        raise RuntimeError(
            f"no certified equilibrium of {name}: duality gap {result.duality_gap:.3g} "
            f"> tolerance {tolerance:.3g} after {result.iterations} sweeps"
        )
    return result


def optimal_potential(network: WardropNetwork, tolerance: float = 1e-9) -> float:
    """Return the minimum Beckmann potential ``Phi*``, within ``tolerance`` above it."""
    return certified_equilibrium(network, tolerance).potential_value
