"""The finite-population agent model: Poisson activation clocks, one bulletin board.

The paper's analysis lives in the fluid limit (an infinite population of
infinitesimal agents), but its motivation is a finite distributed system:
``n`` agents, each controlling ``1/n``-th of the demand, each activated at
the jumps of its own unit-rate Poisson process, each applying the two-step
sample-and-migrate policy against the bulletin board.

:func:`simulate_agents` simulates that finite system exactly, with no time
discretisation.  It serves two purposes in the reproduction:

* it validates that the fluid-limit ODE is the right abstraction -- as ``n``
  grows the empirical population shares converge to the ODE trajectory
  (benchmark E9), and
* it gives downstream users a simulator that matches the deployment story
  (real routers/agents are finite), not just the analysis tool.

There is one agent engine: a single run is the one-row case of
:class:`~repro.batch.agents.BatchAgentSimulator`, whose phases run on the
same phase loop as the fluid engine (board posted at every phase start,
Eq. 3).  This module holds the model's building block that engine uses --
the initial path counts -- and the seeding contract its phases follow; the
phase grid is :func:`~repro.core.trajectory.planned_phase_counts`, shared
with every other engine.

Randomness schedule (the seeding contract)
------------------------------------------
Each replica draws its randomness *per phase* from its own generator seeded
with its own seed, so its outcome does not depend on the batch it runs in.

*Stale information.*  Inside a phase of length ``d`` every agent reads the
same frozen board, so agents move independently: each follows the
continuous-time Markov chain on its commodity's paths with generator
``Lambda[P, Q] = sigma_PQ * min(mu_PQ, 1)`` (its rate-1 clock, the sampled
path, a coin in ``[0, 1)`` that must clear ``mu``) and diagonal minus the
row sum.  The ``n_P`` agents on path ``P`` therefore end the phase spread
over the commodity's paths as ``Multinomial(n_P, expm(d * Lambda)[P, :])``.
The phase is one ``rng.multinomial(counts, expm(d * Lambda))`` call over the
row's commodity blocks, summed over the source path.  This is exact in
distribution, not event for event.

*Up-to-date information.*  The union of all agents' Poisson clocks is a
Poisson process of rate ``n``, so the number of activations inside one
phase of length ``d`` is ``Poisson(n * d)`` and the activated agents are
i.i.d. uniform.  The phase draws, in blocks:

1. ``K = rng.poisson(n * d)``        -- the activation count of the phase,
2. ``rng.integers(n, size=K)``       -- the activated ranks, in clock order,
3. ``rng.random(K)``                 -- one sampling uniform per activation,
4. ``rng.random(K)``                 -- one migration coin per activation.

Rank ``a`` activates the ``a``-th agent in commodity-major path order of
the replica's *current* counts: its path is the number of cumulative
counts ``<= a``.  A uniform rank is a uniform agent, so the activated
path has law ``counts / n`` as in the model.  Decisions depend only on the
*order* of activations (which is exchangeable with their i.i.d. draw
order), so this block schedule is an exact simulation, not a
time-discretised one, and it is what ``tests/reference_agents.py`` replays
event by event.

Under either model the agents of a commodity are exchangeable, so a
replica's whole state is its path counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..batch.engine import StopPredicate
    from ..scenarios.scenario import Scenario

from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from .policy import ReroutingPolicy
from .trajectory import Trajectory

DEFAULT_NUM_AGENTS = 1000


# Model building blocks ---------------------------------------------------


def population_counts(
    network: WardropNetwork,
    num_agents: int,
    initial_values: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the initial ``(counts, weights)`` of one replica, per path.

    Agents are partitioned over commodities proportionally to the demands
    and, within a commodity, over paths proportionally to the initial flow
    (largest-remainder rounding keeps the counts exact).  ``counts[p]`` is
    the number of agents starting on path ``p`` and ``weights[p]`` the
    demand each of them carries, ``demand / count`` of its commodity.
    ``initial_values`` is the target path-flow vector (uniform split when
    ``None``).
    """
    if initial_values is None:
        initial_values = FlowVector.uniform(network).values()
    initial_values = np.asarray(initial_values, dtype=float)
    demands = np.array([c.demand for c in network.commodities])
    commodity_agents = _largest_remainder(demands, num_agents)
    counts = np.zeros(network.num_paths, dtype=np.int64)
    weights = np.zeros(network.num_paths)
    for i, (start, stop) in enumerate(network.paths.commodity_slices()):
        shares = initial_values[start:stop]
        total = shares.sum()
        if total > 0:
            path_weights = shares / total
        else:
            path_weights = np.full(stop - start, 1.0 / (stop - start))
        counts[start:stop] = _largest_remainder(path_weights, commodity_agents[i])
        weights[start:stop] = demands[i] / max(commodity_agents[i], 1)
    return counts, weights


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion ``total`` integer units proportionally to ``weights``."""
    weights = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    if weights.sum() <= 0:
        weights = np.ones_like(weights)
    exact = weights / weights.sum() * total
    floors = np.floor(exact).astype(int)
    remainder = total - int(floors.sum())
    if remainder > 0:
        order = np.argsort(-(exact - floors))
        floors[order[:remainder]] += 1
    return floors


def simulate_agents(
    network: WardropNetwork,
    policy: ReroutingPolicy,
    num_agents: int,
    update_period: float,
    horizon: float,
    initial_flow: Optional[FlowVector] = None,
    seed: int = 0,
    stale: bool = True,
    stop_when: Optional["StopPredicate"] = None,
    scenario: Optional["Scenario"] = None,
) -> Trajectory:
    """Simulate ``num_agents`` agents on ``network`` and return the trajectory.

    Agents are partitioned over paths by :func:`population_counts` from
    ``initial_flow`` (uniform split by default) and draw their randomness
    from a generator seeded with ``seed`` (see the seeding contract above).
    ``stale=True`` shows them the bulletin board posted at every phase
    start; ``stale=False`` prices the live flow at every activation.
    ``stop_when(times, flows, rows)`` is the engines' batch predicate,
    evaluated on the realised flow at every phase boundary as a one-row
    batch (``rows == [0]``); the run ends early when its mask is ``True``.
    ``scenario`` makes the environment nonstationary: it is sampled at
    every phase start and frozen for the phase.
    """
    from ..batch.agents import simulate_agent_batch

    for name, value in (
        ("num_agents", num_agents),
        ("update_period", update_period),
        ("horizon", horizon),
        ("seed", seed),
    ):
        if np.ndim(value) != 0:
            raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")
    result = simulate_agent_batch(
        network,
        policy,
        num_agents=num_agents,
        update_periods=update_period,
        horizons=horizon,
        initial_flows=initial_flow,
        seeds=seed,
        stale=stale,
        stop_when=stop_when,
        scenarios=scenario,
    )
    return result.trajectory(0)
