"""Convergence measurements matching the paper's convergence-time statements.

Theorems 6 and 7 bound "the number of update periods not starting at a
(weak) (delta, eps)-equilibrium".  The functions here compute exactly that
quantity from a recorded trajectory (one stacked evaluation over its
``(K, P)`` phase-start flows), plus continuous-time variants (first time the
potential gap or the unsatisfied volume drops below a target) that the
examples report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.trajectory import Trajectory
from ..wardrop.equilibrium import unsatisfied_volumes, weakly_unsatisfied_volumes
from ..wardrop.potential import potentials


@dataclass(frozen=True)
class ConvergenceSummary:
    """Counts of "bad" update periods along one trajectory.

    Attributes
    ----------
    total_phases:
        Number of completed bulletin-board phases in the run.
    bad_phases:
        Phases whose *starting* flow was not a (delta, eps)-equilibrium
        (Definition 3 volume above eps).
    weak_bad_phases:
        Phases whose starting flow was not a *weak* (delta, eps)-equilibrium
        (Definition 4).
    last_bad_phase:
        Index of the last bad phase (-1 if none); useful to check that bad
        phases stop occurring rather than merely being rare.
    delta, epsilon:
        The approximation parameters used.
    """

    total_phases: int
    bad_phases: int
    weak_bad_phases: int
    last_bad_phase: int
    delta: float
    epsilon: float


def check_slacks(delta: float, epsilon: float) -> None:
    """Reject a (delta, eps) pair outside delta > 0, 0 < eps <= 1 (NaN included)."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


def count_bad_phases(trajectory: Trajectory, delta: float, epsilon: float) -> ConvergenceSummary:
    """Count update periods not starting at a (weak) (delta, eps)-equilibrium."""
    check_slacks(delta, epsilon)
    network, starts = trajectory.network, trajectory.phase_starts
    bad = unsatisfied_volumes(network, starts, delta) > epsilon
    weak_bad = weakly_unsatisfied_volumes(network, starts, delta) > epsilon
    return ConvergenceSummary(
        total_phases=len(starts),
        bad_phases=int(np.count_nonzero(bad)),
        weak_bad_phases=int(np.count_nonzero(weak_bad)),
        last_bad_phase=int(np.flatnonzero(bad)[-1]) if bad.any() else -1,
        delta=delta,
        epsilon=epsilon,
    )


def _first_time(times: np.ndarray, reached: np.ndarray) -> Optional[float]:
    """Return the first of ``times`` where ``reached`` holds, or ``None``."""
    return float(times[np.argmax(reached)]) if reached.any() else None


def time_to_potential_gap(
    trajectory: Trajectory, optimal_potential: float, gap: float
) -> Optional[float]:
    """Return the first recorded time at which ``Phi(f) - Phi* <= gap``.

    ``None`` if the gap is never reached within the recorded horizon.
    """
    if not gap >= 0:
        raise ValueError(f"gap must be non-negative, got {gap}")
    reached = potentials(trajectory.network, trajectory.flows) - optimal_potential <= gap
    return _first_time(trajectory.times, reached)


def time_to_approximate_equilibrium(
    trajectory: Trajectory, delta: float, epsilon: float, weak: bool = False
) -> Optional[float]:
    """Return the first phase-start time at a (weak) (delta, eps)-equilibrium.

    Measured at phase starts to match the theorem statements.  ``None`` if no
    recorded phase start qualifies.
    """
    check_slacks(delta, epsilon)
    measure = weakly_unsatisfied_volumes if weak else unsatisfied_volumes
    reached = measure(trajectory.network, trajectory.phase_starts, delta) <= epsilon
    return _first_time(trajectory.phases[:, 0], reached)


def potential_is_monotone(trajectory: Trajectory, slack: float = 1e-9) -> bool:
    """Return True if the potential never increases along phase boundaries.

    Under up-to-date information (Theorem 2) and under stale information with
    a safe update period (Lemma 4) the potential measured at phase ends must
    be non-increasing; oscillating runs violate this.
    """
    values = potentials(trajectory.network, trajectory.phase_ends)
    return bool(np.all(values[1:] <= values[:-1] + slack))


def final_distance_to(trajectory: Trajectory, reference_values: np.ndarray) -> float:
    """Return the L1 distance of the final flow to a reference flow vector."""
    return float(np.abs(trajectory.final_flow.values() - np.asarray(reference_values)).sum())


def fluid_limit_deviation(trajectory: Trajectory, fluid: Trajectory) -> float:
    """Return the sup-norm deviation of a run from a fluid-limit trajectory.

    For every recorded point of ``trajectory`` the fluid flow at the nearest
    recorded fluid time is looked up, and the maximum absolute difference of
    the path shares over all points and paths is returned -- the
    ``sup_t ||f_n(t) - f(t)||_inf`` statistic of the finite-``n`` versus
    fluid-limit comparison (benchmark E9), which by the functional law of
    large numbers should shrink like ``1/sqrt(n)`` as the population grows.
    Both trajectories are typically recorded on the same phase grid (same
    update period and horizon), in which case the time matching is exact.
    """
    if not len(trajectory) or not len(fluid):
        raise ValueError("both trajectories must contain recorded points")
    times = trajectory.times
    fluid_times = fluid.times
    # Nearest recorded fluid time per point: fluid times are recorded in
    # increasing order, so a binary search plus a left/right-neighbour
    # comparison avoids the O(T * F) pairwise distance matrix.
    right = np.clip(np.searchsorted(fluid_times, times), 1, len(fluid_times) - 1)
    left = right - 1
    nearest = np.where(
        np.abs(times - fluid_times[left]) <= np.abs(fluid_times[right] - times),
        left,
        right,
    )
    return float(np.max(np.abs(trajectory.flows - fluid.flows[nearest])))
