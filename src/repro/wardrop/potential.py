"""The Beckmann--McGuire--Winsten potential and the paper's decomposition.

The potential

    Phi(f) = sum_{e in E} int_0^{f_e} l_e(u) du

is minimised exactly at the Wardrop equilibria (Beckmann, McGuire and
Winsten, 1956) and is the Lyapunov function behind every convergence result
in the paper.  This module computes the potential exactly (using the
closed-form antiderivatives of the latency library) and implements the
quantities of Lemma 3 and Lemma 4:

* the *virtual potential gain* of a phase,
  ``V(f_hat, f) = sum_e l_e(f_hat) * (f_e - f_hat_e)`` (Eq. 8),
* the *error terms* ``U_e = int_{f_hat_e}^{f_e} (l_e(u) - l_e(f_hat_e)) du``
  (Eq. 7), and
* the exact decomposition ``Phi(f) - Phi(f_hat) = sum_e U_e + V`` (Lemma 3).

These are used by the tests and by the potential-decomposition benchmark to
verify the central inequality ``Delta Phi <= V / 2`` of Lemma 4 empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowVector
from .latency import ordered_sum
from .network import WardropNetwork


def potentials(network: WardropNetwork, flows: np.ndarray) -> np.ndarray:
    """Return ``Phi`` of ``(..., P)`` path flows, one value per row.

    Each row's edge integrals are added in edge order, so a row equals the
    one-row :func:`potential` bit for bit.
    """
    return network.latency_table().potential(network.edge_flows(flows))


def potential(flow: FlowVector) -> float:
    """Return the Beckmann--McGuire--Winsten potential ``Phi(f)``."""
    return float(potentials(flow.network, flow.values()))


def potential_gap(flow: FlowVector, optimum: float) -> float:
    """Return ``Phi(f) - Phi*`` given the optimal potential value."""
    return potential(flow) - optimum


def virtual_potential_gain(stale: FlowVector, current: FlowVector) -> float:
    """Return the virtual potential gain ``V(f_hat, f)`` of Eq. (8).

    ``stale`` is the flow at the beginning of the phase (the one whose
    latencies are posted on the bulletin board) and ``current`` the flow at
    the end of the phase.  For any selfish policy the value is non-positive.
    """
    return decompose_phase(stale, current).virtual_gain


def error_terms(stale: FlowVector, current: FlowVector) -> np.ndarray:
    """Return the per-edge error terms ``U_e`` of Eq. (7).

    ``U_e`` measures how much the edge latency moved away from its posted
    value while the flow changed during the phase; it is the quantity the
    proof of Lemma 4 charges against the virtual gain.
    """
    return decompose_phase(stale, current).error_terms


@dataclass(frozen=True)
class PotentialDecomposition:
    """The Lemma 3 decomposition of a phase's potential change.

    Attributes
    ----------
    delta_phi:
        The true potential change ``Phi(f) - Phi(f_hat)``.
    virtual_gain:
        The virtual potential gain ``V(f_hat, f)`` (non-positive for selfish
        policies).
    error_terms:
        Per-edge error terms ``U_e``; their sum plus the virtual gain equals
        ``delta_phi`` exactly (up to floating point).
    """

    delta_phi: float
    virtual_gain: float
    error_terms: np.ndarray

    @property
    def error_total(self) -> float:
        return float(self.error_terms.sum())

    @property
    def identity_residual(self) -> float:
        """Return ``delta_phi - (sum U_e + V)``; zero by Lemma 3."""
        return self.delta_phi - (self.error_total + self.virtual_gain)

    def satisfies_lemma4(self, slack: float = 1e-9) -> bool:
        """Return ``True`` if ``delta_phi <= virtual_gain / 2 + slack``.

        This is the conclusion of Lemma 4 under the safe update period; the
        benchmark harness checks it phase by phase.
        """
        return self.delta_phi <= 0.5 * self.virtual_gain + slack


def decompose_phase(stale: FlowVector, current: FlowVector) -> PotentialDecomposition:
    """Compute the full Lemma 3 decomposition for one bulletin-board phase."""
    if stale.network is not current.network:
        raise ValueError("flows must live on the same network")
    table = stale.network.latency_table()
    stale_edge = stale.edge_flows()
    current_edge = current.edge_flows()
    phi_stale = table.integrals(stale_edge)
    phi_current = table.integrals(current_edge)
    posted = table.values(stale_edge)
    delta = current_edge - stale_edge
    return PotentialDecomposition(
        delta_phi=ordered_sum(phi_current) - ordered_sum(phi_stale),
        virtual_gain=float(np.dot(posted, delta)),
        # int_{fhat}^{f} (l(u) - posted) du, exact via the antiderivative.
        error_terms=phi_current - phi_stale - posted * delta,
    )
