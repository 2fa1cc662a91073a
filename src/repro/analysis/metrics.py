"""Scalar metrics extracted from trajectories for reports and benches.

These helpers keep the benchmark code declarative: a bench builds a
trajectory, then asks this module for the handful of scalars it prints
(potential gap, equilibrium violation, Lemma 4 compliance rate, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.trajectory import Trajectory
from ..wardrop.equilibrium import equilibrium_violation
from ..wardrop.latency import ordered_sum
from ..wardrop.potential import potential, potentials


@dataclass(frozen=True)
class PhasePotentialStats:
    """Per-run statistics of the Lemma 3/4 phase decomposition.

    Attributes
    ----------
    phases:
        Number of phases analysed.
    max_identity_residual:
        Largest absolute residual of the Lemma 3 identity
        ``delta Phi = sum U_e + V`` (should be integrator noise only).
    lemma4_violations:
        Number of phases where ``delta Phi > V / 2`` by more than the slack --
        zero is the Lemma 4 prediction when ``T <= T*``.
    max_potential_increase:
        Largest per-phase increase of the potential (0 for monotone runs).
    """

    phases: int
    max_identity_residual: float
    lemma4_violations: int
    max_potential_increase: float


def phase_potential_stats(trajectory: Trajectory, slack: float = 1e-7) -> PhasePotentialStats:
    """Evaluate the Lemma 3 identity and the Lemma 4 inequality per phase.

    All phases are decomposed at once, with the arithmetic of
    :func:`~repro.wardrop.potential.decompose_phase` on the ``(K, E)`` edge
    flows of the phase starts (the posted states) and ends.
    """
    network = trajectory.network
    table = network.latency_table()
    stale = network.edge_flows(trajectory.phase_starts)
    current = network.edge_flows(trajectory.phase_ends)
    phi_stale = table.integrals(stale)
    phi_current = table.integrals(current)
    posted = table.values(stale)
    delta = current - stale
    delta_phi = ordered_sum(phi_current) - ordered_sum(phi_stale)
    virtual_gain = np.einsum("ke,ke->k", posted, delta)
    error_total = (phi_current - phi_stale - posted * delta).sum(axis=-1)
    residuals = np.abs(delta_phi - (error_total + virtual_gain))
    return PhasePotentialStats(
        phases=len(delta_phi),
        max_identity_residual=float(residuals.max(initial=0.0)),
        lemma4_violations=int(np.count_nonzero(~(delta_phi <= 0.5 * virtual_gain + slack))),
        max_potential_increase=float(delta_phi.max(initial=0.0)),
    )


def final_potential_gap(trajectory: Trajectory, optimal_potential: float) -> float:
    """Return ``Phi(final flow) - Phi*``."""
    return potential(trajectory.final_flow) - optimal_potential


def final_equilibrium_violation(trajectory: Trajectory) -> float:
    """Return the Wardrop-equilibrium violation of the final flow."""
    return equilibrium_violation(trajectory.final_flow)


def potential_decrease_rate(trajectory: Trajectory) -> float:
    """Return the average per-phase potential decrease over the run.

    Positive values mean the potential went down on average; oscillating runs
    hover around zero.
    """
    values = potentials(trajectory.network, trajectory.phase_ends)
    if len(values) < 2:
        return 0.0
    return float(-(values[-1] - values[0]) / (len(values) - 1))


def trajectory_summary_row(trajectory: Trajectory, optimal_potential: float) -> dict:
    """Return a dictionary of the headline metrics of a run (for table rows)."""
    return {
        "policy": trajectory.policy_name,
        "T": trajectory.update_period,
        "phases": len(trajectory.phases),
        "final_gap": final_potential_gap(trajectory, optimal_potential),
        "final_violation": final_equilibrium_violation(trajectory),
        "avg_latency": trajectory.final_flow.average_latency(),
    }
