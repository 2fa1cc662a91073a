"""The bulletin board: Mitzenmacher's model of stale information.

All information relevant to rerouting (the edge latencies, and for
proportional sampling also the flow shares) is posted on a *bulletin board*
at the beginning of every phase of fixed length ``T``.  Between updates the
agents see only the posted snapshot, no matter how much the true flow has
moved in the meantime.  The ``T -> 0`` limit is the up-to-date information
model of Section 3.1, which the simulators run as ``stale=False``.

This is the board of the finite-agent simulator; the fluid engine keeps one
board per ensemble row in :class:`~repro.batch.board.BatchBulletinBoard`,
which refreshes on the same ``floor(t / T)`` schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..wardrop.network import WardropNetwork


@dataclass(frozen=True)
class BoardSnapshot:
    """The information posted on the bulletin board at one update.

    Attributes
    ----------
    time:
        The time ``t_hat`` at which the snapshot was taken (phase start).
    path_flows:
        The flow vector at ``t_hat`` (needed by proportional sampling).
    edge_latencies:
        The edge latencies ``l_e(f_e(t_hat))`` as posted.
    path_latencies:
        The path latencies computed from the posted edge latencies.
    """

    time: float
    path_flows: np.ndarray
    edge_latencies: np.ndarray
    path_latencies: np.ndarray


class BulletinBoard:
    """A bulletin board refreshed every ``update_period`` time units.

    The owner drives it by calling :meth:`maybe_update` with the current time
    and live flow; the board decides whether a refresh is due.  ``phase_index``
    counts completed refreshes, which the convergence-time analyses use as the
    round counter ("number of update periods").
    """

    def __init__(self, network: WardropNetwork, update_period: float):
        if update_period <= 0:
            raise ValueError("update period must be positive")
        self.network = network
        self.update_period = float(update_period)
        self._snapshot: Optional[BoardSnapshot] = None
        self.phase_index = -1

    @property
    def snapshot(self) -> BoardSnapshot:
        if self._snapshot is None:
            raise RuntimeError("the bulletin board has never been updated")
        return self._snapshot

    def phase_start(self, time: float) -> float:
        """Return ``t_hat = floor(t / T) * T``, the start of the phase containing t."""
        return np.floor(time / self.update_period) * self.update_period

    def needs_update(self, time: float) -> bool:
        """Return True if a refresh is due at ``time``."""
        if self._snapshot is None:
            return True
        return self.phase_start(time) > self._snapshot.time + 1e-12

    def post(self, time: float, path_flows: np.ndarray) -> BoardSnapshot:
        """Unconditionally refresh the board with the given live state."""
        edge_flows = self.network.edge_flows(path_flows)
        edge_latencies = self.network.edge_latencies(edge_flows)
        snapshot = BoardSnapshot(
            time=self.phase_start(time),
            path_flows=np.asarray(path_flows, dtype=float).copy(),
            edge_latencies=edge_latencies,
            path_latencies=self.network.path_latencies_from_edge_latencies(edge_latencies),
        )
        self._snapshot = snapshot
        self.phase_index += 1
        return snapshot

    def maybe_update(self, time: float, path_flows: np.ndarray) -> bool:
        """Refresh the board if a new phase has begun; return whether it did."""
        if self.needs_update(time):
            self.post(time, path_flows)
            return True
        return False
