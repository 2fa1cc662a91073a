"""Best-response dynamics, fresh and stale, plus the two-link closed form.

The best-response dynamics (Eq. 2 of the paper) is not based on sampling:
every activated agent switches to a latency-minimal path of its commodity, so
in the fluid limit the flow moves straight towards the set of best replies,

    df/dt in { f' - f(t) : f' in beta(f(t)) },

a differential inclusion because the shortest path need not be unique.  Under
stale information (Eq. 4) the best reply is computed against the flow at the
start of the phase, ``f(t_hat)``.

Within one phase the posted best reply is fixed, so the dynamics has the
explicit solution ``f(t_hat + s) = target + (f(t_hat) - target) * exp(-s)``;
the simulator exploits that closed form (no numerical integration needed,
and it reproduces the paper's Section 3.2 calculation exactly).  Ties are
broken by splitting the demand equally over all minimum-latency paths, the
standard selection that keeps the solution well defined.

:func:`two_link_best_response_flow` gives the fully explicit trajectory of
the two-link oscillation instance, used to validate the generic simulator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.validation import require_positive, require_positive_integer
from .trajectory import PhaseRecord, Trajectory, planned_phase_counts


def best_reply_target(network: WardropNetwork, path_latencies: np.ndarray, tie_tolerance: float = 1e-12) -> np.ndarray:
    """Return the best-reply flow for the given (posted) path latencies.

    Every commodity puts its demand on its minimum-latency paths, split
    evenly among ties.
    """
    blocks = network.paths.blocks
    latencies = np.where(blocks.valid, blocks.gather(path_latencies), np.inf)
    winners = latencies <= latencies.min(axis=-1, keepdims=True) + tie_tolerance
    share = network.commodity_demands[:, None] / winners.sum(axis=-1, keepdims=True)
    return blocks.scatter(np.where(winners, share, 0.0))


def simulate_best_response(
    network: WardropNetwork,
    update_period: float,
    horizon: float,
    initial_flow: Optional[FlowVector] = None,
    stale: bool = True,
    samples_per_phase: int = 10,
) -> Trajectory:
    """Simulate (stale) best-response dynamics using the per-phase closed form.

    With ``stale=True`` the best reply is recomputed only at phase starts
    (Eq. 4); with ``stale=False`` phases are made very short relative to the
    dynamics so the run approximates the up-to-date inclusion (Eq. 2).  The
    exponential-approach closed form is exact within each phase either way.
    """
    require_positive("update_period", update_period)
    require_positive("horizon", horizon)
    require_positive_integer("samples_per_phase", samples_per_phase)
    # ``is None``, not truthiness: FlowVector defines __len__, so ``or``
    # would silently replace a zero-length flow instead of rejecting it.
    flow = FlowVector.uniform(network) if initial_flow is None else initial_flow
    trajectory = Trajectory(
        network=network,
        policy_name="best-response" + ("" if stale else " (fresh)"),
        update_period=update_period if stale else 0.0,
    )
    time = 0.0
    trajectory.record(time, flow, -1)
    for phase in range(int(planned_phase_counts(horizon, update_period))):
        phase_start = phase * update_period
        phase_end = min((phase + 1) * update_period, horizon)
        start_flow = flow
        posted_latencies = network.path_latencies(flow.values())
        target = best_reply_target(network, posted_latencies)
        duration = phase_end - phase_start
        # Record a few intermediate samples so oscillations are visible.
        for k in range(1, samples_per_phase + 1):
            elapsed = duration * k / samples_per_phase
            decay = math.exp(-elapsed)
            values = target + (start_flow.values() - target) * decay
            flow = FlowVector(network, values, validate=False).projected()
            if k < samples_per_phase:
                trajectory.record(phase_start + elapsed, flow, phase)
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
    return trajectory


def two_link_best_response_flow(
    initial_first_link: float, update_period: float, time: float
) -> float:
    """Closed-form first-link flow of stale best response on the two-link instance.

    Implements the piecewise-exponential solution of Section 3.2: within a
    phase the flow on the first link decays towards 0 or 1 depending on which
    link looked cheaper at the phase start.  Valid for the symmetric instance
    with threshold 1/2 (the best reply flips exactly when the posted flow
    crosses 1/2).
    """
    require_positive("update_period", update_period)
    if not 0.0 <= initial_first_link <= 1.0:
        raise ValueError(f"initial_first_link must lie in [0, 1], got {initial_first_link}")
    if not (math.isfinite(time) and time >= 0):
        raise ValueError(f"time must be finite and non-negative, got {time}")
    current = initial_first_link
    remaining = time
    while remaining > 1e-15:
        elapsed = min(update_period, remaining)
        if current > 0.5:
            # Link 1 posted as more expensive: flow decays towards 0.
            current = current * math.exp(-elapsed)
        elif current < 0.5:
            # Link 2 posted as more expensive: flow grows towards 1.
            current = 1.0 - (1.0 - current) * math.exp(-elapsed)
        # current == 0.5 exactly: equilibrium, nothing moves.
        remaining -= elapsed
    return current
