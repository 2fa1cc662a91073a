"""The recorded form of a dynamics run and the phase grid every engine uses.

A :class:`Trajectory` is one row of an engine's result as arrays
(:meth:`repro.batch.engine.BatchResult.trajectory`), for every model alike;
each derived quantity (potential, average latency, unsatisfied volumes) is
one stacked evaluation over those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..wardrop.equilibrium import unsatisfied_volumes, weakly_unsatisfied_volumes
from ..wardrop.flow import FlowVector, average_latencies, max_used_latencies
from ..wardrop.network import WardropNetwork
from ..wardrop.potential import potential, potentials


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
class Trajectory:
    """A recorded run of one of the dynamics simulators, as arrays.

    ``times`` ``(N,)`` and ``flows`` ``(N, P)`` are the run's samples (sample
    0 is the initial state) and ``sample_phases[k]`` the phase sample ``k``
    belongs to.  Row ``k`` of ``phases`` ``(K, 2)`` holds phase ``k``'s
    (start, end) times, ``phase_starts[k]`` the state the phase moved from
    (the flow posted on the board) and ``phase_ends[k]`` the state it ended
    in; the Lemma 3/4 quantities and the Theorem 6/7 counts are evaluated on
    these two ``(K, P)`` stacks.  The arrays may be views of the batch result
    the trajectory was read from.
    """

    network: WardropNetwork
    times: np.ndarray
    flows: np.ndarray
    sample_phases: np.ndarray
    phases: np.ndarray
    phase_starts: np.ndarray
    phase_ends: np.ndarray
    policy_name: str = ""
    update_period: float = 0.0

    def __post_init__(self) -> None:
        samples, phases, paths = len(self.times), len(self.phases), self.network.num_paths
        expected = dict(
            flows=(samples, paths), sample_phases=(samples,), phases=(phases, 2),
            phase_starts=(phases, paths), phase_ends=(phases, paths),
        )
        for name, shape in expected.items():
            if np.shape(getattr(self, name)) != shape:
                got = np.shape(getattr(self, name))
                raise ValueError(f"trajectory {name} has shape {got}, expected {shape}")

    # Access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    @property
    def initial_flow(self) -> FlowVector:
        return FlowVector(self.network, self.flows[0], validate=False)

    @property
    def final_flow(self) -> FlowVector:
        return FlowVector(self.network, self.flows[-1], validate=False)

    def flow_matrix(self) -> np.ndarray:
        """Return a copy of the ``(samples, paths)`` array of path flows over time."""
        return np.array(self.flows, dtype=float)

    def potential_trace(self) -> np.ndarray:
        """Return the Beckmann potential at every recorded sample."""
        return potentials(self.network, self.flows)

    def average_latency_trace(self) -> np.ndarray:
        """Return the overall average latency ``L`` at every sample."""
        return average_latencies(self.network, self.flows)

    def max_used_latency_trace(self) -> np.ndarray:
        """Return the maximum latency over used paths at every sample."""
        return max_used_latencies(self.network, self.flows)

    def unsatisfied_trace(self, delta: float) -> np.ndarray:
        """Return the delta-unsatisfied volume (Definition 3) at every sample."""
        return unsatisfied_volumes(self.network, self.flows, delta)

    def weakly_unsatisfied_trace(self, delta: float) -> np.ndarray:
        """Return the weakly delta-unsatisfied volume (Definition 4) at every sample."""
        return weakly_unsatisfied_volumes(self.network, self.flows, delta)

    def describe(self) -> str:
        """Return a one-line summary of the run."""
        if not len(self):
            return "Trajectory(empty)"
        return (
            f"Trajectory(policy={self.policy_name or 'unknown'}, T={self.update_period:g}, "
            f"samples={len(self)}, phases={len(self.phases)}, "
            f"t_final={self.times[-1]:g}, "
            f"Phi_final={potential(self.final_flow):.6g})"
        )
