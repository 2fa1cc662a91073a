"""Ready-made ``stop_when`` predicates for every engine.

Every engine evaluates ``stop_when(times, flows, rows)`` at each phase
boundary: it receives the phase-end times, the projected ``(R, P)``
phase-end flows and the batch row indices of the active sub-batch, and
returns a boolean mask -- True freezes a row.  A one-replica run
(``simulate``, ``simulate_agents``, ``simulate_with_column_generation``) is a
one-row batch and passes the same predicate with ``rows == [0]``, so a
single predicate object stops a batched row and its one-row run at the same
phase, with the same floating-point operations.  Both predicates here raise
``ValueError`` on flows over a path set that column generation grew.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..wardrop.equilibrium import equilibrium_violations
from ..wardrop.family import NetworkFamily
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from .engine import StopPredicate


def _check_paths(name: str, paths: int, flows: np.ndarray) -> None:
    if flows.shape[-1] != paths:
        raise ValueError(
            f"{name} was built for {paths} paths but got flows over {flows.shape[-1]}: column "
            "generation grew the run's path set, and the predicate prices only its fixed set"
        )


def _stack_targets(targets) -> np.ndarray:
    if isinstance(targets, np.ndarray):
        return np.asarray(targets, dtype=float)
    return np.stack(
        [
            target.values() if isinstance(target, FlowVector) else np.asarray(target, dtype=float)
            for target in targets
        ]
    )


def distance_stop(
    targets: Union[np.ndarray, Sequence[FlowVector]], tolerance: float
) -> StopPredicate:
    """Stop a row once its L1 distance to a per-row target flow is ≤ tolerance.

    ``targets`` is a ``(B, P)`` array or a list of ``B`` flow vectors --
    typically the known Wardrop equilibria of the family members; row ``r``
    is compared with ``targets[r]``.
    """
    stacked = _stack_targets(targets)
    tolerance = float(tolerance)
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")

    def predicate(times: np.ndarray, flows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        _check_paths("distance_stop", stacked.shape[-1], flows)
        return np.abs(flows - stacked[rows]).sum(axis=1) <= tolerance

    return predicate


def equilibrium_gap_stop(
    network: Union[WardropNetwork, NetworkFamily],
    delta: float,
    threshold: float = 1e-9,
) -> StopPredicate:
    """Stop a row once every used path is within ``delta`` of its commodity optimum.

    A row stops when, for each commodity, the maximum latency over paths
    carrying more than ``threshold`` flow exceeds the commodity's minimum
    path latency by at most ``delta`` -- the delta-approximate-equilibrium
    criterion of the convergence theorems, evaluated on row ``r``'s live
    latencies (member ``r``'s for a family; a network prices every row) by
    the :func:`~repro.wardrop.equilibrium.equilibrium_violations` kernel.
    """
    family = (
        network if isinstance(network, NetworkFamily) else NetworkFamily.replicate(network, 1)
    )
    delta = float(delta)
    for name, value in (("delta", delta), ("threshold", threshold)):
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value}")

    def predicate(times: np.ndarray, flows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        _check_paths("equilibrium_gap_stop", family.num_paths, flows)
        latencies = family.path_latencies_batch(flows, rows)
        return equilibrium_violations(family.base, flows, latencies, threshold) <= delta

    return predicate
