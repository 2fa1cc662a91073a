"""Trajectory recording for the dynamics simulators.

A :class:`Trajectory` stores the flow at sample times together with the
derived quantities the analyses need (potential, average latency,
unsatisfied volumes, phase boundaries).  Both the fluid-limit simulator and
the finite-agent simulator produce trajectories, so the analysis toolkit and
the benchmarks can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..wardrop.equilibrium import unsatisfied_volume, weakly_unsatisfied_volume
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.potential import potential


def planned_phase_counts(horizons, periods) -> np.ndarray:
    """Return the number of bulletin-board phases a run executes, per row.

    Phase ``k`` starts at ``k * period`` and runs while its start lies below
    the horizon.  ``ceil(horizon / period)`` plans one phase too many when
    ``horizon / period`` lands just above an integer (e.g. a horizon computed
    as ``48 * 0.2``), so trailing phases whose start already reaches the
    horizon are dropped; a run always executes at least one phase.  Every
    engine and best response derive their phase grid from this one rule.
    Accepts scalars or arrays (broadcast together).
    """
    horizons = np.asarray(horizons, dtype=float)
    periods = np.asarray(periods, dtype=float)
    counts = np.maximum(np.ceil(horizons / periods).astype(int), 1)
    while True:
        overshoot = (counts > 1) & ((counts - 1) * periods >= horizons)
        if not np.any(overshoot):
            return counts
        counts = np.where(overshoot, counts - 1, counts)


@dataclass
class TrajectoryPoint:
    """One recorded sample of a dynamics run."""

    time: float
    flow: FlowVector
    phase_index: int

    @property
    def potential(self) -> float:
        return potential(self.flow)


@dataclass
class PhaseRecord:
    """Summary of one bulletin-board phase (one update period).

    ``start_flow`` is the flow at the phase start (i.e. the posted state) and
    ``end_flow`` the flow when the next update happened; the Lemma 3/4
    quantities are derived from the pair by the analysis module.
    """

    index: int
    start_time: float
    end_time: float
    start_flow: FlowVector
    end_flow: FlowVector


@dataclass
class Trajectory:
    """A recorded run of one of the dynamics simulators."""

    network: WardropNetwork
    points: List[TrajectoryPoint] = field(default_factory=list)
    phases: List[PhaseRecord] = field(default_factory=list)
    policy_name: str = ""
    update_period: float = 0.0

    # Recording ------------------------------------------------------------

    def record(self, time: float, flow: FlowVector, phase_index: int) -> None:
        self.points.append(TrajectoryPoint(time=time, flow=flow, phase_index=phase_index))

    def record_phase(self, record: PhaseRecord) -> None:
        self.phases.append(record)

    # Access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    @property
    def initial_flow(self) -> FlowVector:
        return self.points[0].flow

    @property
    def final_flow(self) -> FlowVector:
        return self.points[-1].flow

    @property
    def times(self) -> np.ndarray:
        return np.array([point.time for point in self.points])

    def flow_matrix(self) -> np.ndarray:
        """Return an array of shape (samples, paths) of path flows over time."""
        return np.array([point.flow.values() for point in self.points])

    def potential_trace(self) -> np.ndarray:
        """Return the Beckmann potential at every recorded sample."""
        return np.array([point.potential for point in self.points])

    def average_latency_trace(self) -> np.ndarray:
        """Return the overall average latency ``L`` at every sample."""
        return np.array([point.flow.average_latency() for point in self.points])

    def max_used_latency_trace(self) -> np.ndarray:
        """Return the maximum latency over used paths at every sample."""
        return np.array([point.flow.max_used_latency() for point in self.points])

    def unsatisfied_trace(self, delta: float) -> np.ndarray:
        """Return the delta-unsatisfied volume (Definition 3) at every sample."""
        return np.array([unsatisfied_volume(point.flow, delta) for point in self.points])

    def weakly_unsatisfied_trace(self, delta: float) -> np.ndarray:
        """Return the weakly delta-unsatisfied volume (Definition 4) at every sample."""
        return np.array([weakly_unsatisfied_volume(point.flow, delta) for point in self.points])

    def phase_start_flows(self) -> List[FlowVector]:
        """Return the flow at the start of every completed phase."""
        return [phase.start_flow for phase in self.phases]

    def sample_at(self, time: float) -> TrajectoryPoint:
        """Return the recorded point closest to ``time``."""
        if not self.points:
            raise ValueError("trajectory is empty")
        index = int(np.argmin(np.abs(self.times - time)))
        return self.points[index]

    def describe(self) -> str:
        """Return a one-line summary of the run."""
        if not self.points:
            return "Trajectory(empty)"
        return (
            f"Trajectory(policy={self.policy_name or 'unknown'}, T={self.update_period:g}, "
            f"samples={len(self.points)}, phases={len(self.phases)}, "
            f"t_final={self.points[-1].time:g}, "
            f"Phi_final={self.points[-1].potential:.6g})"
        )
