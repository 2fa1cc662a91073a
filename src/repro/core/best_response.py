"""Best-response dynamics, fresh and stale, plus the two-link closed form.

The best-response dynamics (Eq. 2 of the paper) is not based on sampling:
every activated agent switches to a latency-minimal path of its commodity, so
in the fluid limit the flow moves straight towards the set of best replies,

    df/dt in { f' - f(t) : f' in beta(f(t)) },

a differential inclusion because the shortest path need not be unique.  Under
stale information (Eq. 4) the best reply is computed against the flow at the
start of the phase, ``f(t_hat)``; ties split the demand evenly.

Best response is one more policy on the one fluid engine
(:func:`~repro.core.policy.best_response_policy`: best-reply sampling and a
migration rule that always moves).  Its phase generator is ``1 sigma - I``,
so the engine's exact phase ``f expm(d Lambda)`` is the closed form
``target + (f(t_hat) - target) * exp(-d)`` of Section 3.2; batching,
scenarios and finite populations (the agent engine) come with the engine.

:func:`two_link_best_response_flow` gives the fully explicit trajectory of
the two-link oscillation instance, used to validate the generic simulator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..batch.engine import BatchConfig, BatchSimulator
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.validation import require_positive, require_positive_integer
from .policy import best_response_policy
from .sampling import BestReplySampling
from .trajectory import Trajectory


def best_reply_target(network: WardropNetwork, path_latencies: np.ndarray) -> np.ndarray:
    """Return the best-reply flow for the given (posted) path latencies.

    Every commodity puts its demand on its minimum-latency paths, split
    evenly among ties: the demand-scaled :class:`BestReplySampling` row.
    """
    blocks = network.paths.blocks
    shares = BestReplySampling().probabilities(blocks, None, blocks.gather(path_latencies))
    return blocks.scatter(network.commodity_demands[:, None] * shares[..., 0, :])


def simulate_best_response(
    network: WardropNetwork,
    update_period: float,
    horizon: float,
    initial_flow: Optional[FlowVector] = None,
    stale: bool = True,
    samples_per_phase: int = 10,
) -> Trajectory:
    """Simulate (stale) best-response dynamics: a one-row run of the fluid engine.

    With ``stale=True`` the best reply is recomputed only at phase starts
    (Eq. 4).  ``stale=False`` runs the same exact phases and labels the
    trajectory fresh: phases short relative to the dynamics approximate the
    up-to-date inclusion (Eq. 2).  Every full phase records
    ``samples_per_phase`` evenly spaced points, its end included, so
    oscillations are visible; a shorter last phase of duration ``d`` keeps
    the spacing at most ``T / samples_per_phase`` and records
    ``ceil(samples_per_phase * d / T)``.
    """
    require_positive("update_period", update_period)
    require_positive("horizon", horizon)
    require_positive_integer("samples_per_phase", samples_per_phase)
    config = BatchConfig(
        update_periods=[update_period], horizons=horizon,
        steps_per_phase=samples_per_phase, record_every=1,
    )
    result = BatchSimulator(network, best_response_policy(), config).run(initial_flow)
    trajectory = result.trajectory(0)
    if not stale:
        trajectory.policy_name += " (fresh)"
        trajectory.update_period = 0.0
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
