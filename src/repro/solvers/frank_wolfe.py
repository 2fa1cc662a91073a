"""Frank--Wolfe (conditional gradient) solver for Wardrop equilibria.

The Beckmann--McGuire--Winsten potential ``Phi`` is convex in the edge flows
and is minimised exactly at the Wardrop equilibria, so the classical
traffic-assignment algorithm applies:

1. at the current flow, compute the live edge latencies,
2. for every commodity route its whole demand on a shortest path with
   respect to those latencies (the "all-or-nothing" flow),
3. move towards the all-or-nothing flow with the step that minimises ``Phi``
   along the segment (exact line search),
4. repeat until the relative duality gap is below the tolerance.

The duality gap ``sum_e l_e(f_e) (f_e - y_e)`` (current minus all-or-nothing)
upper-bounds ``Phi(f) - Phi*`` and doubles as the convergence certificate
returned to callers.

The solver serves as the *ground truth* baseline of the reproduction: the
adaptive rerouting policies of the paper are supposed to converge to the
flows this solver computes, and the tests compare them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.potential import potential
from .line_search import bisection_root
from .options import check_method


@dataclass(frozen=True)
class EquilibriumResult:
    """The output of the Frank--Wolfe solver.

    Attributes
    ----------
    flow:
        The (approximate) Wardrop-equilibrium flow.
    potential_value:
        The Beckmann potential at the returned flow.
    duality_gap:
        The final Frank--Wolfe duality gap; an upper bound on
        ``Phi(f) - Phi*``.
    iterations:
        Number of Frank--Wolfe iterations performed.
    converged:
        Whether the duality-gap tolerance was met before the iteration cap.
    gap_history:
        The duality gap after every iteration (useful for diagnostics).
    method:
        The algorithm that produced the result (``fw`` or ``pg``).
    """

    flow: FlowVector
    potential_value: float
    duality_gap: float
    iterations: int
    converged: bool
    gap_history: List[float]
    method: str = "fw"


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
    """Return the Frank--Wolfe duality gap of a path-flow vector."""
    latencies = network.path_latencies(flows)
    target = all_or_nothing_flow(network, latencies)
    return float(np.dot(latencies, flows - target))


def solve_wardrop_equilibrium(
    network: WardropNetwork,
    tolerance: float = 1e-8,
    max_iterations: int = 2000,
    initial: Optional[FlowVector] = None,
    method: str = "fw",
) -> EquilibriumResult:
    """Compute a Wardrop equilibrium of ``network`` in path space.

    Parameters
    ----------
    network:
        The instance to solve.
    tolerance:
        Target duality gap (absolute, in latency x flow units).
    max_iterations:
        Iteration cap; the result reports whether it was hit.
    initial:
        Optional warm-start flow; defaults to the uniform split.  The check
        is an explicit ``is None`` -- a warm start is honoured even when its
        truthiness is degenerate (``FlowVector.__len__`` makes empty vectors
        falsy, which an ``or`` default would silently drop).
    method:
        ``"fw"`` (classical Frank--Wolfe, the default) or ``"pg"``
        (path-based projection gradient, dispatched to
        :func:`~repro.solvers.projection_gradient.solve_path_projection_gradient`).
    """
    check_method(method, "path")
    if method == "pg":
        from .projection_gradient import solve_path_projection_gradient

        return solve_path_projection_gradient(
            network, tolerance=tolerance, max_iterations=max_iterations, initial=initial
        )
    flow = (FlowVector.uniform(network) if initial is None else initial).values()
    gap_history: List[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        latencies = network.path_latencies(flow)
        target = all_or_nothing_flow(network, latencies)
        gap = float(np.dot(latencies, flow - target))
        gap_history.append(gap)
        if gap <= tolerance:
            converged = True
            break
        direction = target - flow

        def potential_slope(step: float) -> float:
            """Directional derivative of Phi along the Frank--Wolfe segment."""
            point = flow + step * direction
            edge_flows = network.edge_flows(point)
            edge_latencies = network.edge_latencies(edge_flows)
            edge_direction = network.edge_flows(direction)
            return float(np.dot(edge_latencies, edge_direction))

        step = bisection_root(potential_slope, 0.0, 1.0)
        if step <= 0.0:
            # No progress possible along this direction; fall back to the
            # classical 2/(k+2) step to escape potential stalling.
            step = 2.0 / (iterations + 2.0)
        flow = flow + step * direction
    result_flow = FlowVector(network, flow).projected()
    final_gap = duality_gap(network, result_flow.values())
    return EquilibriumResult(
        flow=result_flow,
        potential_value=potential(result_flow),
        duality_gap=final_gap,
        iterations=iterations,
        converged=converged or final_gap <= tolerance,
        gap_history=gap_history,
    )


def optimal_potential(network: WardropNetwork, tolerance: float = 1e-10) -> float:
    """Return (an upper bound on) the minimum Beckmann potential ``Phi*``."""
    return solve_wardrop_equilibrium(network, tolerance=tolerance).potential_value
