"""The bulletin board: Mitzenmacher's model of stale information, one per row.

All information relevant to rerouting (the edge latencies, and for
proportional sampling also the flow shares) is posted on a *bulletin board*
at the beginning of every phase of fixed length ``T``.  Between updates the
agents see only the posted snapshot, no matter how much the true flow has
moved in the meantime.  The ``T -> 0`` limit is the up-to-date information
model of Section 3.1, which the engines run as ``stale=False``.

Every engine -- fluid, finite agents and column generation -- keeps one board
per ensemble row in :class:`BatchBulletinBoard` (a single run is its one-row
case) and posts every active row at the start of each of its phases, Eq. (3)
exactly: the board keeps no refresh schedule of its own.  Rows may use
different update periods, so their phase clocks tick at different absolute
times even though the engines advance them phase by phase in lockstep (row
``r`` is always inside *its own* phase ``k``), which is fine because
replicas are independent.  The posted flows, edge latencies and path
latencies of all rows are stored as stacked arrays, and any subset of rows
refreshes in one vectorised network evaluation.  The rows route on the
members of a :class:`~repro.wardrop.family.NetworkFamily` (same topology,
per-row latency coefficients; a shared network is the family of ``B``
references to it), and row ``r``'s snapshot is evaluated with member ``r``'s
latency functions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..wardrop.family import NetworkFamily
from ..wardrop.validation import require_positive


class BatchBulletinBoard:
    """``B`` bulletin boards with per-row update periods, stored as arrays.

    Attributes
    ----------
    update_periods:
        Array of shape ``(B,)`` with each row's refresh interval ``T_r``.
    phase_index:
        Array of shape ``(B,)`` counting posts per row (−1 before the first
        post), i.e. the index of the phase each row's snapshot belongs to.
    posted_flows / posted_edge_latencies / posted_path_latencies:
        The stacked snapshots, shapes ``(B, P)``, ``(B, E)``, ``(B, P)``.
    posted_times:
        The per-row phase-start times ``t_hat_r`` of the current snapshots.
    """

    def __init__(self, family: NetworkFamily, update_periods: np.ndarray):
        update_periods = np.asarray(update_periods, dtype=float)
        if update_periods.ndim != 1:
            raise ValueError("update_periods must be a one-dimensional array")
        require_positive("update_periods", update_periods)
        self.update_periods = update_periods
        self.set_networks(family)
        batch = len(update_periods)
        self.posted_flows = np.zeros((batch, self.network.num_paths))
        self.posted_edge_latencies = np.zeros((batch, self.network.num_edges))
        self.posted_path_latencies = np.zeros((batch, self.network.num_paths))
        self.posted_times = np.full(batch, -np.inf)
        self.phase_index = np.full(batch, -1, dtype=int)

    def __len__(self) -> int:
        return len(self.update_periods)

    def set_networks(self, family: NetworkFamily) -> None:
        """Swap the latency source to another same-topology family.

        The scenario layer calls this at every phase boundary: posting then
        prices the rows' live flows in their *current* environments.  Only the
        latency functions may differ -- posted arrays, clocks and phase
        counters are untouched.
        """
        if family.size != len(self):
            raise ValueError(f"family of {family.size} networks for {len(self)} boards")
        self.family = family
        self.network = family.base

    def post_rows(
        self,
        times: np.ndarray,
        path_flows: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Refresh the boards of the rows selected by ``mask`` (all by default).

        ``times`` is the per-row current time (shape ``(B,)`` or a scalar
        broadcast to all rows); ``path_flows`` is the live ``(B, P)`` state.
        Only the masked rows' snapshots change.
        """
        network = self.network
        if mask is None:
            mask = np.ones(len(self), dtype=bool)
        if not mask.any():
            return
        flows = np.asarray(path_flows, dtype=float)[mask]
        edge_latencies = self.family.edge_latencies_batch(
            network.edge_flows(flows), np.flatnonzero(mask)
        )
        self.posted_flows[mask] = flows
        self.posted_edge_latencies[mask] = edge_latencies
        self.posted_path_latencies[mask] = network.path_latencies_from_edge_latencies(
            edge_latencies
        )
        self.posted_times[mask] = np.broadcast_to(times, mask.shape)[mask]
        self.phase_index[mask] += 1
