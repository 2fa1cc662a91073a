"""Oscillation detection for rerouting trajectories.

The failure mode the paper is about -- and that naive policies exhibit under
stale information -- is persistent oscillation: the flow keeps overshooting
the equilibrium, the potential does not settle, and a constant fraction of
agents keeps experiencing high latency.  The detector here works on the
phase-start flows of a trajectory (the natural stroboscopic sampling for a
bulletin-board system) and reports

* the amplitude of the tail oscillation (max minus min of each path flow over
  the last ``window`` phases),
* an estimate of the period (in phases) via autocorrelation of the dominant
  path's flow, and
* whether the trajectory should be classified as oscillating rather than
  converged, using an amplitude threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.trajectory import Trajectory
from ..wardrop.flow import max_used_latencies


@dataclass(frozen=True)
class OscillationReport:
    """Summary of the tail behaviour of a trajectory.

    Attributes
    ----------
    amplitude:
        Largest per-path (max - min) flow variation over the analysis window.
    period_phases:
        Estimated oscillation period in bulletin-board phases (None if no
        periodic structure was detected).
    mean_phase_start_latency:
        Average over the window of the maximum latency sustained by used
        paths at phase starts -- the quantity the paper's ``X`` bounds.
    is_oscillating:
        True if the amplitude exceeds the supplied threshold.
    """

    amplitude: float
    period_phases: Optional[int]
    mean_phase_start_latency: float
    is_oscillating: bool


def analyse_oscillation(
    trajectory: Trajectory,
    window: int = 20,
    amplitude_threshold: float = 1e-3,
) -> OscillationReport:
    """Analyse the tail of a trajectory for oscillation.

    ``window`` phase-start flows from the end of the run are examined; runs
    shorter than the window use every recorded phase.
    """
    if not len(trajectory.phases):
        raise ValueError("trajectory has no recorded phases")
    matrix = trajectory.phase_starts[-window:]
    amplitude = float((matrix.max(axis=0) - matrix.min(axis=0)).max())
    latencies = max_used_latencies(trajectory.network, matrix)
    period = _estimate_period(matrix)
    return OscillationReport(
        amplitude=amplitude,
        period_phases=period,
        mean_phase_start_latency=float(np.mean(latencies)),
        is_oscillating=amplitude > amplitude_threshold,
    )


def _estimate_period(matrix: np.ndarray) -> Optional[int]:
    """Estimate the oscillation period from the most-varying path's flow.

    Uses the first local maximum of the (unbiased) autocorrelation; returns
    ``None`` when the signal is essentially constant or no clear peak exists.
    """
    if matrix.shape[0] < 4:
        return None
    variances = matrix.var(axis=0)
    signal = matrix[:, int(np.argmax(variances))]
    centred = signal - signal.mean()
    if np.allclose(centred, 0.0, atol=1e-12):
        return None
    correlation = np.correlate(centred, centred, mode="full")[len(centred) - 1 :]
    if correlation[0] <= 0:
        return None
    correlation = correlation / correlation[0]
    # First lag where the autocorrelation turns back up and is substantial.
    for lag in range(1, len(correlation) - 1):
        if correlation[lag] >= correlation[lag - 1] and correlation[lag] >= correlation[lag + 1]:
            if correlation[lag] > 0.25:
                return lag
    return None


def phase_start_latency_trace(trajectory: Trajectory) -> np.ndarray:
    """Return the max used-path latency at the start of every phase.

    For the two-link oscillation instance this is the quantity whose closed
    form is ``X = beta (1 - e^{-T}) / (2 e^{-T} + 2)``.
    """
    return max_used_latencies(trajectory.network, trajectory.phase_starts)
