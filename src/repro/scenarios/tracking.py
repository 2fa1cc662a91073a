"""Equilibrium tracking: ground truth and metrics for moving equilibria.

Under a nonstationary scenario the Wardrop equilibrium itself moves: every
interval between scenario breakpoints has its own *instantaneous* equilibrium
(the equilibrium of the environment frozen on that interval).  The paper's
convergence guarantees then become *tracking* statements -- how closely, and
how quickly after each breakpoint, do the stale-information dynamics chase
the moving target?

This module computes the ground truth and the three tracking metrics:

* :func:`interval_equilibria` solves one equilibrium per scenario interval,
  reusing the path-space projection-gradient solver on enumerable instances
  and the edge-flow (oracle-driven) solver on road networks,
* :func:`tracking_error` measures the L1 distance of a trajectory to the
  instantaneous equilibrium over time,
* :func:`time_to_reequilibrate` measures how long after a breakpoint the
  error needs to re-enter a tolerance band,
* :func:`tracking_regret` integrates the *Beckmann-potential* excess over
  the instantaneous optimum.  The instantaneous equilibrium minimises the
  Beckmann potential of its interval's environment, so this gap is
  non-negative (up to solver tolerance) -- unlike the average-latency
  excess, which can be negative away from equilibrium (Pigou's example: the
  equilibrium is not the social optimum).

Solving is cached by *modulation*: a 32-row incident-timing sweep whose rows
share the same incident magnitude needs exactly two equilibrium solves
(nominal and incident-active), not ``2 * 32``.  The cache key includes the
identity of the base network (entries pin their network, so ids stay valid
for the cache's lifetime): rows of a heterogeneous-coefficient family may
share one cache without one network's equilibrium answering for another's.

Edge-space solves accept the accelerated methods of
:data:`repro.solvers.EDGE_METHODS` (``method="cfw"`` / ``"bfw"``); path
space has one solver.  Solves *warm-start* by default: each interval's solve
is seeded from the previous interval's equilibrium, which typically cuts the
iteration count sharply because consecutive environments are close.
``EquilibriumTrack.total_iterations`` reports the summed solver work, the
quantity the warm-start acceptance benchmark pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.trajectory import Trajectory
from ..largescale.shortest import ShortestPathOracle
from ..solvers.edge_frank_wolfe import check_method, solve_edge_flow_equilibrium
from ..solvers.projection_gradient import solve_wardrop_equilibrium
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.potential import potentials
from ..wardrop.validation import require_positive
from .scenario import Modulation, Scenario

# The path-space solver sweeps over the instance's path set; beyond this many
# paths (or on restricted road instances) the edge-flow solver is the right
# ground truth.
AUTO_PATH_SPACE_LIMIT = 200


@dataclass(frozen=True)
class IntervalEquilibrium:
    """The ground-truth equilibrium of one scenario interval.

    ``flow_values`` is the path-space equilibrium (``None`` in edge space);
    ``edge_flows`` is the oracle-order edge-flow equilibrium (``None`` in
    path space).  ``average_latency`` is the equilibrium's average latency in
    the interval's effective environment (normalised TSTT); ``potential`` is
    its Beckmann potential, the reference :func:`tracking_regret` subtracts.
    ``iterations`` counts the solver iterations this entry cost (0 when it
    came from the cache).
    """

    modulation: Modulation
    flow_values: Optional[np.ndarray]
    edge_flows: Optional[np.ndarray]
    average_latency: float
    potential: float
    converged: bool
    iterations: int = 0


@dataclass
class EquilibriumTrack:
    """Per-interval equilibria of one (network, scenario, horizon) triple.

    ``times[i]`` is the start of interval ``i``; interval ``i`` covers
    ``[times[i], times[i+1])`` (the last one runs to the horizon).
    ``method`` names the edge-space solver that ran; path-space tracks,
    whose one solver is projection gradient, carry ``None``.
    """

    network: WardropNetwork
    scenario: Scenario
    space: str
    times: np.ndarray
    equilibria: List[IntervalEquilibrium]
    oracle: Optional[ShortestPathOracle] = None
    solves: int = field(default=0)
    method: Optional[str] = None
    total_iterations: int = field(default=0)

    def index_at(self, t: float) -> int:
        """Return the interval index containing time ``t``."""
        return int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 1))

    def equilibrium_at(self, t: float) -> IntervalEquilibrium:
        return self.equilibria[self.index_at(t)]


def _solve_interval(
    network: WardropNetwork,
    effective: WardropNetwork,
    modulation: Modulation,
    space: str,
    tolerance: float,
    oracle: Optional[ShortestPathOracle],
    method: str = "fw",
    max_iterations: int = 2000,
    seed: Optional[IntervalEquilibrium] = None,
) -> IntervalEquilibrium:
    """Solve one interval's equilibrium, optionally seeded from ``seed``.

    ``seed`` is the previous interval's equilibrium: demands never change
    across intervals (scenarios modulate latencies, not commodity demands),
    so the previous solution is feasible in the new environment and usually
    very close to its equilibrium.
    """
    if space == "path":
        initial = None
        if seed is not None and seed.flow_values is not None:
            initial = FlowVector(effective, seed.flow_values, validate=False)
        result = solve_wardrop_equilibrium(
            effective, tolerance=tolerance, max_iterations=max_iterations, initial=initial
        )
        return IntervalEquilibrium(
            modulation=modulation,
            flow_values=result.flow.values(),
            edge_flows=None,
            average_latency=float(result.flow.average_latency()),
            potential=float(result.potential_value),
            converged=result.converged,
            iterations=result.iterations,
        )
    initial_edge_flows = seed.edge_flows if seed is not None else None
    result = solve_edge_flow_equilibrium(
        effective, tolerance=tolerance, max_iterations=max_iterations,
        oracle=oracle, initial_edge_flows=initial_edge_flows, method=method,
    )
    return IntervalEquilibrium(
        modulation=modulation,
        flow_values=None,
        edge_flows=result.edge_flows,
        average_latency=float(result.tstt),
        potential=float(result.potential_value),
        converged=result.converged,
        iterations=result.iterations,
    )


def interval_equilibria(
    network: WardropNetwork,
    scenario: Scenario,
    horizon: float,
    space: str = "auto",
    tolerance: float = 1e-6,
    sample_every: Optional[float] = None,
    oracle: Optional[ShortestPathOracle] = None,
    cache: Optional[Dict] = None,
    method: str = "fw",
    warm_start: bool = True,
    max_iterations: int = 2000,
) -> EquilibriumTrack:
    """Solve the instantaneous equilibrium of every scenario interval.

    Parameters
    ----------
    network:
        The base (stationary) instance.
    scenario / horizon:
        The nonstationary environment and the time range ``[0, horizon)``.
    space:
        ``"path"`` (path-based solvers on the enumerated path set),
        ``"edge"`` (oracle-driven edge-flow solvers over the full graph)
        or ``"auto"`` (path space up to :data:`AUTO_PATH_SPACE_LIMIT` paths).
    sample_every:
        Optional extra grid spacing: continuous profiles (piecewise-linear
        ramps, periodic peaks) move between breakpoints, so a finite grid
        refines the piecewise-constant ground-truth approximation.
    oracle:
        Optional pre-built shortest-path oracle (edge space), shared across
        rows by the benchmark.
    cache:
        Optional dict shared across calls: equilibria are memoised by
        ``(network identity, modulation, space, tolerance, method)`` (the
        method is ``None`` in path space), so
        sweeps whose rows revisit the same environment states (e.g. the same
        incident at different times) solve each distinct state once.  Each
        entry stores its network alongside the equilibrium, pinning the
        object so its id stays valid for the cache's lifetime.
    method:
        Edge-space solver method for every interval: ``"fw"`` / ``"cfw"`` /
        ``"bfw"``.  Path space has one solver, so after ``"auto"``
        resolution any other method than the default raises there.
    warm_start:
        Seed each cache-missing solve from the previous interval's
        equilibrium (default).  Demands are interval-invariant, so the seed
        is always feasible; ``False`` forces cold starts (the baseline the
        warm-start benchmark compares against).
    max_iterations:
        Per-interval solver iteration budget.
    """
    require_positive("horizon", horizon)
    if space == "auto":
        space = "path" if network.num_paths <= AUTO_PATH_SPACE_LIMIT else "edge"
    if space not in ("path", "edge"):
        raise ValueError(f"unknown tracking space {space!r}; use 'path', 'edge' or 'auto'")
    check_method(method)
    if space == "path" and method != "fw":
        raise ValueError(f"method {method!r} is edge-space only; path space has one solver")
    solver = method if space == "edge" else None
    if space == "edge" and oracle is None:
        oracle = ShortestPathOracle.for_network(network)
    times = {0.0}
    times.update(scenario.breakpoints(0.0, horizon))
    if sample_every is not None:
        require_positive("sample_every", sample_every)
        times.update(np.arange(0.0, horizon, sample_every).tolist())
    ordered = np.array(sorted(times))
    cache = cache if cache is not None else {}
    equilibria: List[IntervalEquilibrium] = []
    solves = 0
    total_iterations = 0
    for t in ordered:
        modulation = scenario.modulation_at(float(t))
        key = (id(network), modulation, space, tolerance, solver)
        entry = cache.get(key)
        if entry is None:
            effective = scenario.network_at(network, float(t))
            seed = equilibria[-1] if warm_start and equilibria else None
            equilibrium = _solve_interval(
                network, effective, modulation, space, tolerance, oracle,
                method=method, max_iterations=max_iterations, seed=seed,
            )
            cache[key] = (network, equilibrium)
            solves += 1
            total_iterations += equilibrium.iterations
        else:
            _, equilibrium = entry
        equilibria.append(equilibrium)
    return EquilibriumTrack(
        network=network,
        scenario=scenario,
        space=space,
        times=ordered,
        equilibria=equilibria,
        oracle=oracle,
        solves=solves,
        method=solver,
        total_iterations=total_iterations,
    )


def tracking_error(trajectory: Trajectory, track: EquilibriumTrack) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(times, errors)``: L1 distance to the moving equilibrium.

    Path-space tracks compare path flows directly; edge-space tracks compare
    the trajectory's edge flows (expanded to the oracle's full edge order)
    with the edge-flow equilibrium.  Evaluated at every recorded trajectory
    point.
    """
    times = np.array(trajectory.times, dtype=float)
    references = [track.equilibrium_at(float(t)) for t in times]
    if track.space == "path":
        flows = trajectory.flows
        targets = np.array([reference.flow_values for reference in references])
    else:
        flows = np.zeros((len(times), track.oracle.num_edges))
        positions = track.oracle.network_edge_positions(track.network)
        flows[:, positions] = track.network.edge_flows(trajectory.flows)
        targets = np.array([reference.edge_flows for reference in references])
    return times, np.abs(flows - targets).sum(axis=-1)


def time_to_reequilibrate(
    times: np.ndarray,
    errors: np.ndarray,
    breakpoint_time: float,
    tolerance: float,
) -> float:
    """Return how long after ``breakpoint_time`` the error re-enters ``tolerance``.

    Measured on the sample grid: the first recorded time ``>= breakpoint_time``
    with ``error <= tolerance``, minus the breakpoint.  ``inf`` if the error
    never recovers within the recorded range.
    """
    after = (times >= breakpoint_time) & (errors <= tolerance)
    if not after.any():
        return float("inf")
    return float(times[np.argmax(after)] - breakpoint_time)


def tracking_regret(
    trajectory: Trajectory,
    track: EquilibriumTrack,
) -> float:
    """Return the time-integrated Beckmann-potential gap to the moving optimum.

    At every recorded point the trajectory's flow is priced in the *current*
    effective environment and its Beckmann potential is compared with the
    instantaneous equilibrium's (which minimises it); the gap is integrated
    by the trapezoid rule.  The potential is the Lyapunov function of the
    paper's dynamics, so this is the natural "cost of chasing" metric: zero
    iff the dynamics sit on the instantaneous equilibrium throughout, and
    non-negative up to solver tolerance.
    """
    times = trajectory.times
    excess = np.empty(len(times))
    # One potential per sample: each is priced on its own effective network.
    for i, (t, flows) in enumerate(zip(times.tolist(), trajectory.flows)):
        effective = track.scenario.network_at(track.network, t)
        excess[i] = float(potentials(effective, flows)) - track.equilibrium_at(t).potential
    if len(times) < 2:
        return 0.0
    # np.trapezoid is the numpy >= 2 name; fall back to trapz on 1.x so this
    # module does not silently raise the project's numpy floor.
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(excess, times))
