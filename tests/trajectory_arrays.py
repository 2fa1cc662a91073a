"""Hand-made trajectories for tests, built from arrays."""

from __future__ import annotations

import numpy as np

from repro.core import Trajectory


def boundary_trajectory(network, times, flows, **metadata) -> Trajectory:
    """Return the trajectory of phase-boundary samples: sample ``k`` closes phase ``k - 1``.

    ``times`` is ``(N,)`` and ``flows`` ``(N, P)``; ``metadata`` sets
    ``policy_name`` and ``update_period``.  With no samples the trajectory is
    empty.
    """
    times = np.asarray(times, dtype=float)
    flows = np.asarray(flows, dtype=float).reshape(len(times), network.num_paths)
    return Trajectory(
        network=network,
        times=times,
        flows=flows,
        sample_phases=np.maximum(np.arange(len(times)) - 1, 0),
        phases=np.stack([times[:-1], times[1:]], axis=1),
        phase_starts=flows[:-1],
        phase_ends=flows[1:],
        **metadata,
    )
