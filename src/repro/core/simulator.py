"""The fluid-limit rerouting simulator with bulletin-board staleness.

:class:`ReroutingSimulator` integrates the dynamics of Eq. (3): at the start
of every phase of length ``T`` the bulletin board is refreshed with the live
edge latencies (and flow shares), and for the duration of the phase the
migration-rate field is computed against that frozen snapshot while the true
flow keeps moving.  Setting ``stale=False`` runs the up-to-date information
dynamics of Eq. (1) instead (the board is refreshed at every integration
step), which is the setting of Theorem 2.

The simulator records a :class:`~repro.core.trajectory.Trajectory` with
per-phase start/end flows, which is exactly the granularity the paper's
convergence-time statements are about ("the number of update periods not
starting at an approximate equilibrium").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..telemetry.runtime import get_telemetry
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.validation import require_positive
from .bulletin import BulletinBoard, FreshInformationBoard
from .dynamics import integrate, integration_step_for
from .policy import ReroutingPolicy
from .trajectory import PhaseRecord, Trajectory

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..scenarios.scenario import Scenario

StoppingCondition = Callable[[float, FlowVector], bool]


@dataclass
class SimulationConfig:
    """Configuration of a fluid-limit simulation run.

    Attributes
    ----------
    update_period:
        The bulletin-board refresh interval ``T``.
    horizon:
        Total simulated time.
    steps_per_phase:
        Number of integrator sub-steps per phase (controls accuracy).
    method:
        Integration scheme, ``"rk4"`` (default) or ``"euler"``.
    stale:
        If ``False`` the board is refreshed continuously (up-to-date
        information, Eq. 1); if ``True`` (default) it is refreshed only at
        phase boundaries (Eq. 3).
    record_every_step:
        If ``True`` a trajectory point is recorded at every integration
        sub-step; otherwise only at phase boundaries (the default, and what
        the convergence-time analyses need).
    """

    update_period: float = 0.1
    horizon: float = 50.0
    steps_per_phase: int = 50
    method: str = "rk4"
    stale: bool = True
    record_every_step: bool = False

    def __post_init__(self) -> None:
        require_positive("update_period", self.update_period)
        require_positive("horizon", self.horizon)
        require_positive("steps_per_phase", self.steps_per_phase)


class ReroutingSimulator:
    """Simulates a rerouting policy on a network in the fluid limit.

    ``scenario`` optionally makes the environment nonstationary: at every
    phase start the scenario's modulation is sampled and frozen for the
    phase, so the bulletin board posts the *current* environment's latencies
    and (in fresh mode) the live field prices flows in it.  Within a phase
    the environment, like the board, does not move -- scenario changes are
    information events, applied exactly at phase boundaries.
    """

    def __init__(
        self,
        network: WardropNetwork,
        policy: ReroutingPolicy,
        config: SimulationConfig,
        scenario: Optional["Scenario"] = None,
    ):
        self.network = network
        self.policy = policy
        self.config = config
        self.scenario = scenario

    def run(
        self,
        initial_flow: Optional[FlowVector] = None,
        stop_when: Optional[StoppingCondition] = None,
    ) -> Trajectory:
        """Run the simulation and return the recorded trajectory.

        ``stop_when(time, flow)`` is evaluated at every phase boundary; when
        it returns ``True`` the run ends early (the final state is still
        recorded).
        """
        tele = get_telemetry()
        with tele.span(
            "engine_run",
            engine="fluid-scalar",
            instance=self.network.graph.graph.get("name") or "-",
            method=self.config.method,
            stale=self.config.stale,
            paths=self.network.num_paths,
        ) as run_span:
            trajectory = self._run(initial_flow, stop_when, tele)
            run_span.annotate(phases=len(trajectory.phases))
        tele.counter("fluid.runs").add()
        return trajectory

    def _run(
        self,
        initial_flow: Optional[FlowVector],
        stop_when: Optional[StoppingCondition],
        tele,
    ) -> Trajectory:
        config = self.config
        network = self.network
        # ``is None``, not truthiness: FlowVector defines __len__, so ``or``
        # would silently replace a zero-length flow instead of rejecting it.
        flow = FlowVector.uniform(network) if initial_flow is None else initial_flow
        if flow.network is not network:
            raise ValueError("initial flow belongs to a different network")
        board: BulletinBoard
        if config.stale:
            board = BulletinBoard(network, config.update_period)
        else:
            board = FreshInformationBoard(network)
        trajectory = Trajectory(
            network=network,
            policy_name=self.policy.label(),
            update_period=config.update_period if config.stale else 0.0,
        )
        step = integration_step_for(config.update_period, config.steps_per_phase)
        scenario = self.scenario
        time = 0.0
        if scenario is not None:
            scenario.require_edges(network)
            board.network = scenario.network_at(network, time)
        board.post(time, flow.values())
        trajectory.record(time, flow, board.phase_index)

        phases_counter = tele.counter("fluid.phases_integrated")
        refresh_counter = tele.counter("fluid.bulletin_refreshes")
        num_phases = int(np.ceil(config.horizon / config.update_period))
        for phase in range(num_phases):
            phase_start = phase * config.update_period
            phase_end = min((phase + 1) * config.update_period, config.horizon)
            start_flow = flow
            phase_span = tele.span("phase", index=phase, start=phase_start)
            with phase_span:
                if scenario is not None:
                    phase_network = scenario.network_at(network, phase_start)
                    board.network = phase_network
                else:
                    phase_network = network
                if config.stale:
                    # One frozen snapshot for the whole phase: sigma and mu
                    # are precomputed once instead of once per integrator
                    # stage (the trajectory is identical bit for bit; see
                    # ReroutingPolicy.frozen_growth_field).
                    if board.maybe_update(phase_start, flow.values()):
                        tele.event("bulletin_refresh", time=phase_start)
                        refresh_counter.add()
                    snapshot = board.snapshot
                    with tele.span("field_eval"):
                        field = self.policy.frozen_growth_field(
                            network, snapshot.path_flows, snapshot.path_latencies
                        )
                    with tele.span("integrate", state_bytes=flow.values().nbytes):
                        new_values = self._integrate_phase(
                            field, flow.values(), phase_start, phase_end, step,
                            trajectory, phase,
                        )
                else:
                    # Up-to-date information: probabilities follow the live
                    # state (priced in the phase's frozen environment).
                    def field(_t: float, state: np.ndarray) -> np.ndarray:
                        live_latencies = phase_network.path_latencies(state)
                        return self.policy.growth_rates(network, state, state, live_latencies)

                    with tele.span("integrate", state_bytes=flow.values().nbytes):
                        new_values = self._integrate_phase(
                            field, flow.values(), phase_start, phase_end, step,
                            trajectory, phase,
                        )
                    board.post(phase_end, new_values)
                flow = FlowVector(network, new_values, validate=False).projected()
            phases_counter.add()
            trajectory.record_phase(
                PhaseRecord(
                    index=phase,
                    start_time=phase_start,
                    end_time=phase_end,
                    start_flow=start_flow,
                    end_flow=flow,
                )
            )
            trajectory.record(phase_end, flow, phase)
            if stop_when is not None and stop_when(phase_end, flow):
                tele.event("stop_when_fired", time=phase_end, phase=phase)
                break
            if phase_end >= config.horizon:
                break
        return trajectory

    def _integrate_phase(
        self,
        field,
        state: np.ndarray,
        phase_start: float,
        phase_end: float,
        step: float,
        trajectory: Trajectory,
        phase: int,
    ) -> np.ndarray:
        """Integrate one phase, optionally recording every integrator sub-step."""
        if not self.config.record_every_step:
            return integrate(field, state, phase_start, phase_end, step, self.config.method)
        duration = phase_end - phase_start
        num_steps = max(1, int(np.ceil(duration / step)))
        sub_step = duration / num_steps
        current = state
        for i in range(num_steps):
            t0 = phase_start + i * sub_step
            current = integrate(field, current, t0, t0 + sub_step, sub_step, self.config.method)
            if i + 1 < num_steps:
                trajectory.record(
                    t0 + sub_step,
                    FlowVector(self.network, current, validate=False).projected(),
                    phase,
                )
        return current


def simulate(
    network: WardropNetwork,
    policy: ReroutingPolicy,
    update_period: float,
    horizon: float,
    initial_flow: Optional[FlowVector] = None,
    stale: bool = True,
    steps_per_phase: int = 50,
    method: str = "rk4",
    stop_when: Optional[StoppingCondition] = None,
    scenario: Optional["Scenario"] = None,
) -> Trajectory:
    """Convenience wrapper building a simulator and running it once."""
    config = SimulationConfig(
        update_period=update_period,
        horizon=horizon,
        steps_per_phase=steps_per_phase,
        method=method,
        stale=stale,
    )
    return ReroutingSimulator(network, policy, config, scenario=scenario).run(
        initial_flow, stop_when=stop_when
    )
