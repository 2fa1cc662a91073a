"""Batched vectorized simulation: whole ensembles as one stacked integration.

This subpackage is the execution layer behind the parameter sweeps: instead
of running ``B`` independent simulations through Python loops, a
:class:`BatchSimulator` evolves all replicas as a single ``(B, P)`` array
with vectorised right-hand sides, per-row bulletin-board clocks (rows may
have different update periods ``T``) and per-row horizons.  The replicas
route on the members of a :class:`~repro.wardrop.family.NetworkFamily`
(same topology, per-row latency coefficients; a shared network is the
family of ``B`` references to it), and a vectorised ``stop_when`` mask (see
:mod:`repro.batch.stopping`) freezes converged rows early so they skip all
remaining work.  It is the only fluid engine: :func:`~repro.core.simulate`
is its one-row case, row ``r`` of a ``B``-row run equals that one-row run
bit for bit (``tests/batch``), and one-row runs match an independent
integrator written from Eq. (1)/(3) (``tests/reference_dynamics.py``).
"""

from .agents import (
    BatchAgentConfig,
    BatchAgentResult,
    BatchAgentSimulator,
    simulate_agent_batch,
)
from .board import BatchBulletinBoard
from .engine import (
    BatchConfig,
    BatchResult,
    BatchSimulator,
    StopPredicate,
    simulate_batch,
)
from .stopping import distance_stop, equilibrium_gap_stop

__all__ = [
    "BatchAgentConfig",
    "BatchAgentResult",
    "BatchAgentSimulator",
    "BatchBulletinBoard",
    "BatchConfig",
    "BatchResult",
    "BatchSimulator",
    "StopPredicate",
    "distance_stop",
    "equilibrium_gap_stop",
    "simulate_agent_batch",
    "simulate_batch",
]
