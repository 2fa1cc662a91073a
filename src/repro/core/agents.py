"""Finite-population agent-based simulator with Poisson activation clocks.

The paper's analysis lives in the fluid limit (an infinite population of
infinitesimal agents), but its motivation is a finite distributed system:
``n`` agents, each controlling ``1/n``-th of the demand, each activated at
the jumps of its own unit-rate Poisson process, each applying the two-step
sample-and-migrate policy against the bulletin board.

This module implements that finite system directly as a discrete-event
simulation.  It serves two purposes in the reproduction:

* it validates that the fluid-limit ODE is the right abstraction -- as ``n``
  grows the empirical population shares converge to the ODE trajectory
  (benchmark E9), and
* it gives downstream users a simulator that matches the deployment story
  (real routers/agents are finite), not just the analysis tool.

Randomness schedule (the seeding contract)
------------------------------------------
The union of all agents' Poisson clocks is a Poisson process of rate ``n``,
so the number of activations inside one bulletin-board phase of length ``d``
is ``Poisson(n * d)`` and the activated agents are i.i.d. uniform.  The
simulator therefore draws its randomness *per phase, in blocks*:

1. ``K = rng.poisson(n * d)``        -- the activation count of the phase,
2. ``rng.integers(n, size=K)``       -- the activated agents, in clock order,
3. ``rng.random(K)``                 -- one sampling uniform per activation,
4. ``rng.random(K)``                 -- one migration coin per activation.

Under stale information the decisions inside a phase depend only on the
frozen snapshot, and under up-to-date information only on the *order* of
activations (which is exchangeable with their i.i.d. draw order), so this
block schedule is still an exact simulation, not a time-discretised one.
Crucially, the block schedule is what makes the batched engine
(:class:`repro.batch.agents.BatchAgentSimulator`) *bit-identical* per row:
a batched replica with seed ``s`` issues exactly the same generator calls as
a standalone :class:`AgentBasedSimulator` with seed ``s`` and applies the
same floating-point kernels, so assignments, trajectories and final flows
agree bit for bit (see ``tests/batch/test_agent_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..scenarios.scenario import Scenario

from ..telemetry.runtime import get_telemetry
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.validation import require_positive
from .bulletin import BulletinBoard
from .policy import ReroutingPolicy
from .trajectory import PhaseRecord, Trajectory

StoppingCondition = Callable[[float, FlowVector], bool]

DEFAULT_NUM_AGENTS = 1000


@dataclass
class AgentSimulationConfig:
    """Configuration of a finite-agent simulation.

    Attributes
    ----------
    num_agents:
        Population size ``n``; each agent carries ``1/n`` of the total demand
        (agents are assigned to commodities proportionally to the demands).
    update_period:
        Bulletin-board refresh interval ``T``.
    horizon:
        Total simulated time.
    seed:
        Seed of the random generator driving activations, sampling and
        migration coin flips.
    record_interval:
        Trajectory point-thinning interval: points are recorded at phase
        boundaries, every ``round(record_interval / T)``-th phase (defaults
        to every phase; the final state is always recorded).  Must be at
        least the update period -- the phase-block schedule records at phase
        boundaries only.  Phase records are never thinned.
    stale:
        If ``True`` (default) the agents see the bulletin-board snapshot
        posted at the phase start; if ``False`` every activation sees the
        live flow and latencies (the up-to-date information model).
    """

    num_agents: int = DEFAULT_NUM_AGENTS
    update_period: float = 0.1
    horizon: float = 50.0
    seed: int = 0
    record_interval: Optional[float] = None
    stale: bool = True

    def __post_init__(self) -> None:
        if self.num_agents < 1:
            raise ValueError("need at least one agent")
        require_positive("update_period", self.update_period)
        require_positive("horizon", self.horizon)
        if self.record_interval is not None and self.record_interval < self.update_period:
            raise ValueError(
                "record_interval must be at least the update period: trajectory "
                "points are recorded at phase boundaries (denser sampling is "
                "not supported by the phase-block schedule)"
            )


# Shared kernels ------------------------------------------------------------
#
# The helpers below are the *single* definition of the per-phase arithmetic:
# the scalar simulator consumes them event by event, the batched engine
# consumes them as stacked arrays, and because both paths perform the same
# floating-point operations on the same values the two engines agree bit for
# bit row by row.


def build_population(
    network: WardropNetwork,
    num_agents: int,
    initial_values: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the initial ``(assignment, weights)`` arrays of one replica.

    Agents are partitioned over commodities proportionally to the demands
    and, within a commodity, over paths proportionally to the initial flow
    (largest-remainder rounding keeps the counts exact); each agent carries
    ``demand / count`` of its commodity's demand.  ``initial_values`` is the
    target path-flow vector (uniform split when ``None``).
    """
    if initial_values is None:
        initial_values = FlowVector.uniform(network).values()
    initial_values = np.asarray(initial_values, dtype=float)
    assignment = np.empty(num_agents, dtype=np.int64)
    weights = np.empty(num_agents, dtype=float)
    counts = _largest_remainder(
        np.array([c.demand for c in network.commodities]), num_agents
    )
    cursor = 0
    for i, commodity in enumerate(network.commodities):
        indices = np.fromiter(network.paths.commodity_indices(i), dtype=int)
        commodity_agents = counts[i]
        shares = initial_values[indices]
        total = shares.sum()
        if total > 0:
            path_weights = shares / total
        else:
            path_weights = np.full(len(indices), 1.0 / len(indices))
        per_path = _largest_remainder(path_weights, commodity_agents)
        for local, count in enumerate(per_path):
            assignment[cursor : cursor + count] = indices[local]
            cursor += count
        weights[cursor - commodity_agents : cursor] = commodity.demand / max(
            commodity_agents, 1
        )
    return assignment, weights


def realised_flow(assignment: np.ndarray, weights: np.ndarray, num_paths: int) -> np.ndarray:
    """Return the path-flow vector induced by an assignment of weighted agents."""
    return np.bincount(assignment, weights=weights, minlength=num_paths)


def planned_phase_counts(horizons, periods) -> np.ndarray:
    """Return the number of executed bulletin-board phases per row.

    ``ceil(horizon / period)`` plans one phase too many when
    ``horizon / period`` lands just above an integer (e.g. a horizon computed
    as ``48 * 0.2``); trailing phases whose start would already reach the
    horizon are dropped.  Both the scalar and the batched agent engine derive
    their phase grids from this one helper, so they execute exactly the same
    phases for the same configuration -- part of the bit-equivalence
    contract.  Accepts scalars or arrays (broadcast together).
    """
    horizons = np.asarray(horizons, dtype=float)
    periods = np.asarray(periods, dtype=float)
    counts = np.maximum(np.ceil(horizons / periods).astype(int), 1)
    while True:
        overshoot = (counts > 1) & ((counts - 1) * periods >= horizons)
        if not np.any(overshoot):
            return counts
        counts = np.where(overshoot, counts - 1, counts)


@dataclass(frozen=True)
class SamplingLayout:
    """Topology-level index tables behind the sampling kernel.

    ``member_paths[p, j]`` is the ``j``-th global path index of the commodity
    that path ``p`` belongs to (padded by repeating index 0, which is never
    selected because the padded cdf columns equal 1).  ``valid_cols[p, j]``
    is 1.0 on the real columns and 0.0 on the padding.
    """

    member_paths: np.ndarray
    valid_cols: np.ndarray


def sampling_layout(network: WardropNetwork) -> SamplingLayout:
    """Build the per-path commodity index tables of one topology."""
    num_paths = network.num_paths
    widest = max(
        len(network.paths.commodity_indices(i)) for i in range(network.num_commodities)
    )
    member_paths = np.zeros((num_paths, widest), dtype=np.int64)
    valid_cols = np.zeros((num_paths, widest), dtype=float)
    for i in range(network.num_commodities):
        indices = np.fromiter(network.paths.commodity_indices(i), dtype=np.int64)
        member_paths[indices, : len(indices)] = indices
        valid_cols[indices, : len(indices)] = 1.0
    return SamplingLayout(member_paths=member_paths, valid_cols=valid_cols)


def sampling_tables(sigma: np.ndarray, layout: SamplingLayout) -> Tuple[np.ndarray, np.ndarray]:
    """Turn sampling matrices into within-commodity cdf tables.

    ``sigma`` has shape ``(..., P, P)`` (any leading batch dimensions).
    Returns ``(cdf, valid)`` where ``cdf[..., p, j]`` is the normalised
    cumulative probability that an agent on path ``p`` samples the ``j``-th
    path of its commodity, and ``valid[..., p]`` flags rows with positive
    total mass.  The sampled local index of an activation with uniform ``u``
    is ``(cdf[..., p, :] <= u).sum()``: padded and final columns are exactly
    1.0 and ``u < 1``, so the index always lands on a real column.
    """
    layout_shape = layout.member_paths.shape
    indices = np.broadcast_to(layout.member_paths, sigma.shape[:-1] + layout_shape[-1:])
    raw = np.take_along_axis(sigma, indices, axis=-1) * layout.valid_cols
    cdf = np.cumsum(raw, axis=-1)
    totals = cdf[..., -1].copy()
    valid = totals > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf /= totals[..., None]
    return cdf, valid


def decide_event(
    current: int,
    u_sample: float,
    u_migrate: float,
    cdf: np.ndarray,
    valid: np.ndarray,
    mu: np.ndarray,
    member_paths: np.ndarray,
) -> int:
    """Return the path one activation migrates to, or ``-1`` for a no-op.

    The single scalar definition of the two-step decision: sample a path of
    the own commodity by thresholding the cdf row with ``u_sample``, then
    migrate iff ``u_migrate`` clears the posted migration probability.  Both
    scalar information models consume it, and the batched kernels perform
    exactly these operations as stacked arrays.
    """
    if not valid[current]:
        return -1
    local = int((cdf[current] <= u_sample).sum())
    sampled = member_paths[current, local]
    if sampled == current:
        return -1
    if u_migrate < mu[current, sampled]:
        return int(sampled)
    return -1


def apply_events(
    assignment: np.ndarray,
    agents: np.ndarray,
    u_sample: np.ndarray,
    u_migrate: np.ndarray,
    cdf: np.ndarray,
    valid: np.ndarray,
    mu: np.ndarray,
    member_paths: np.ndarray,
) -> None:
    """Apply one stale phase's activations to ``assignment``, in clock order.

    This is the reference event loop; the batched engine replays the same
    decisions as stacked array operations (grouped by the activation's
    occurrence rank per agent, which preserves each agent's clock order while
    different agents, who cannot interact within a frozen phase, are
    processed together).
    """
    for j in range(len(agents)):
        agent = agents[j]
        sampled = decide_event(
            assignment[agent], u_sample[j], u_migrate[j], cdf, valid, mu, member_paths
        )
        if sampled >= 0:
            assignment[agent] = sampled


class AgentBasedSimulator:
    """Exact discrete-event simulation of finitely many rerouting agents.

    After :meth:`run` the attribute ``final_assignment`` holds the last
    agent-to-path assignment (the batched engine exposes the same array per
    row, and the equivalence tests compare them bit for bit).

    ``scenario`` makes the environment nonstationary exactly as in the fluid
    simulator: the modulation is sampled at each phase start, the board posts
    the current environment's latencies, and in fresh mode every activation
    prices the live flow in the phase's frozen environment.  The randomness
    schedule is untouched, so a stationary scenario reproduces the
    scenario-free run bit for bit.
    """

    def __init__(
        self,
        network: WardropNetwork,
        policy: ReroutingPolicy,
        config: AgentSimulationConfig,
        scenario: Optional["Scenario"] = None,
    ):
        self.network = network
        self.policy = policy
        self.config = config
        self.scenario = scenario
        self.final_assignment: Optional[np.ndarray] = None

    def run(
        self,
        initial_flow: Optional[FlowVector] = None,
        stop_when: Optional[StoppingCondition] = None,
    ) -> Trajectory:
        """Run the discrete-event simulation and return the recorded trajectory.

        ``stop_when(time, flow)`` is evaluated at every phase boundary on the
        realised flow -- the same contract as the fluid simulator's -- and
        ends the run early when it returns ``True`` (the final state is
        always recorded, even between ``record_interval`` samples).
        """
        config = self.config
        network = self.network
        policy = self.policy
        n = config.num_agents
        num_paths = network.num_paths
        tele = get_telemetry()
        run_span = tele.span(
            "engine_run",
            engine="agents",
            instance=network.graph.graph.get("name") or "-",
            stale=config.stale,
            agents=n,
            paths=num_paths,
        )
        events_counter = tele.counter("agents.events")
        phases_counter = tele.counter("agents.phases_integrated")
        rng = np.random.default_rng(config.seed)
        assignment, weights = build_population(
            network, n, initial_flow.values() if initial_flow is not None else None
        )
        layout = sampling_layout(network)
        member_paths = layout.member_paths

        trajectory = Trajectory(
            network=network,
            policy_name=f"{policy.label()} (n={n})",
            update_period=config.update_period if config.stale else 0.0,
        )
        flow_values = realised_flow(assignment, weights, num_paths)
        trajectory.record(0.0, FlowVector(network, flow_values, validate=False), 0)

        scenario = self.scenario
        if scenario is not None:
            scenario.require_edges(network)
        board: Optional[BulletinBoard] = None
        flow_live = np.empty(0)
        if config.stale:
            board = BulletinBoard(network, config.update_period)
            if scenario is not None:
                board.network = scenario.network_at(network, 0.0)
            board.post(0.0, flow_values)
        else:
            # Only the fresh-information event loop reads the live flow.
            flow_live = flow_values.copy()

        period = config.update_period
        horizon = config.horizon
        num_phases = int(planned_phase_counts(horizon, period))
        stride = 1
        if config.record_interval is not None:
            stride = max(1, int(round(config.record_interval / period)))
        previous = FlowVector(network, flow_values, validate=False)

        for phase in range(num_phases):
            start = phase * period
            end = min((phase + 1) * period, horizon)
            duration = end - start
            phase_network = (
                scenario.network_at(network, start) if scenario is not None else network
            )
            count = int(rng.poisson(n * duration))
            agents = rng.integers(n, size=count)
            u_sample = rng.random(count)
            u_migrate = rng.random(count)
            phase_span = tele.span("phase", index=phase, activations=count)
            events_counter.add(count)

            if config.stale:
                with tele.span("field_eval"):
                    snapshot = board.snapshot
                    sigma = policy.sampling.probabilities(
                        network, snapshot.path_flows, snapshot.path_latencies
                    )
                    mu = policy.migration.matrix(snapshot.path_latencies)
                    cdf, valid = sampling_tables(sigma, layout)
                with tele.span("apply_events", events=count):
                    apply_events(
                        assignment, agents, u_sample, u_migrate, cdf, valid, mu, member_paths
                    )
            else:
                # The live tables depend only on flow_live, so they stay
                # valid until a migration changes it -- recomputing them
                # lazily is bit-neutral and skips the dominant cost of
                # no-op activations.
                tables_valid = False
                for j in range(count):
                    if not tables_valid:
                        latencies = phase_network.path_latencies(flow_live)
                        sigma = policy.sampling.probabilities(network, flow_live, latencies)
                        mu = policy.migration.matrix(latencies)
                        cdf, valid = sampling_tables(sigma, layout)
                        tables_valid = True
                    agent = agents[j]
                    current = assignment[agent]
                    sampled = decide_event(
                        current, u_sample[j], u_migrate[j], cdf, valid, mu, member_paths
                    )
                    if sampled >= 0:
                        assignment[agent] = sampled
                        weight = weights[agent]
                        flow_live[current] -= weight
                        flow_live[sampled] += weight
                        tables_valid = False

            flow_values = realised_flow(assignment, weights, num_paths)
            flow = FlowVector(network, flow_values, validate=False)
            trajectory.record_phase(
                PhaseRecord(
                    index=phase,
                    start_time=start,
                    end_time=end,
                    start_flow=previous,
                    end_flow=flow,
                )
            )
            sampled_now = (phase + 1) % stride == 0 or phase == num_phases - 1
            if sampled_now:
                trajectory.record(end, flow, phase)
            previous = flow
            phases_counter.add()
            phase_span.close()
            if stop_when is not None and stop_when(end, flow):
                if not sampled_now:
                    trajectory.record(end, flow, phase)
                tele.event("stop_when_fired", time=end, phase=phase)
                break
            if config.stale:
                if end < horizon:
                    if scenario is not None:
                        # The snapshot posted at `end` feeds the next phase,
                        # so it is priced in that phase's environment.
                        board.network = scenario.network_at(network, end)
                    board.post(end, flow_values)
                    tele.event("bulletin_refresh", time=end)
                    tele.counter("agents.bulletin_refreshes").add()
            else:
                flow_live = flow_values.copy()

        self.final_assignment = assignment
        run_span.annotate(phases=len(trajectory.phases))
        run_span.close()
        tele.counter("agents.runs").add()
        return trajectory


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
    stop_when: Optional[StoppingCondition] = None,
    scenario: Optional["Scenario"] = None,
) -> Trajectory:
    """Convenience wrapper around :class:`AgentBasedSimulator`."""
    config = AgentSimulationConfig(
        num_agents=num_agents,
        update_period=update_period,
        horizon=horizon,
        seed=seed,
        stale=stale,
    )
    return AgentBasedSimulator(network, policy, config, scenario=scenario).run(
        initial_flow, stop_when=stop_when
    )
