"""The fluid-limit rerouting dynamics of one replica under bulletin-board staleness.

:func:`simulate` integrates the dynamics of Eq. (3): at the start of every
phase of length ``T`` the bulletin board is refreshed with the live edge
latencies (and flow shares), and for the duration of the phase the
migration rates are read off that frozen snapshot while the true flow keeps
moving: a linear system, solved exactly per phase.  Setting ``stale=False``
runs the up-to-date information dynamics of Eq. (1) instead (the field reads
the live state at every stage of error-controlled Dormand--Prince steps),
which is the setting of Theorem 2.

There is one fluid engine: a single run is the one-row case of
:class:`~repro.batch.engine.BatchSimulator`, so a replica behaves the same
whether it runs alone or as row ``r`` of an ensemble.  The returned
:class:`~repro.core.trajectory.Trajectory` holds the ``(K, P)`` stacks of
phase-start and phase-end flows, which is exactly the granularity the
paper's convergence-time statements are about ("the number of update
periods not starting at an approximate equilibrium").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..batch.engine import BatchConfig, BatchSimulator, StopPredicate
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from .policy import ReroutingPolicy
from .trajectory import Trajectory

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..scenarios.scenario import Scenario


def simulate(
    network: WardropNetwork,
    policy: ReroutingPolicy,
    update_period: float,
    horizon: float,
    initial_flow: Optional[FlowVector] = None,
    stale: bool = True,
    stop_when: Optional[StopPredicate] = None,
    scenario: Optional["Scenario"] = None,
) -> Trajectory:
    """Simulate ``policy`` on ``network`` in the fluid limit and return the trajectory.

    Stale phases are exact and up-to-date ones error-controlled; the
    trajectory records phase boundaries.  ``stop_when(times, flows, rows)``
    is the engines' batch predicate (:mod:`repro.batch.stopping`), evaluated
    on the projected flow at every phase boundary with ``times`` and
    ``rows == [0]`` of shape ``(1,)`` and ``flows`` of shape ``(1, P)``;
    when its mask is ``True`` the run ends early (the final state is still
    recorded).
    ``scenario`` optionally makes the environment nonstationary: its modulation is
    sampled at every phase start and frozen for the phase, so the board
    posts (and, in fresh mode, the live field prices flows in) the current
    environment.
    """
    for name, value in (("update_period", update_period), ("horizon", horizon)):
        if np.ndim(value) != 0:
            raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")
    config = BatchConfig(update_periods=[update_period], horizons=horizon, stale=stale)
    simulator = BatchSimulator(network, policy, config, scenarios=scenario)
    return simulator.run(initial_flow, stop_when=stop_when).trajectory(0)
