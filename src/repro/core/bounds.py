"""Closed-form quantities from the paper's theorems and worked example.

These functions encode the *predicted* side of every experiment: the
benchmark harness prints them next to the measured values so the shape of
each result (who wins, by what factor, where thresholds fall) can be compared
with the paper directly.

Contents
--------
* Section 3.2 (oscillation of best response on two links):
  - :func:`oscillation_fixed_point` -- the initial share ``1/(e^{-T}+1)``,
  - :func:`oscillation_amplitude`  -- the phase-start latency
    ``X = beta (1 - e^{-T}) / (2 e^{-T} + 2)``,
  - :func:`max_update_period_for_latency` -- the largest ``T`` keeping
    ``X <= eps`` (the ``T = O(eps/beta)`` statement).
* Lemma 4 / Corollary 5:
  - :func:`safe_update_period` (re-exported from ``smoothness``).
* Theorem 6 / Theorem 7:
  - :func:`uniform_convergence_bound` and
    :func:`proportional_convergence_bound` -- upper bounds (up to the
    constants hidden in the O-notation) on the number of update periods not
    starting at a (weak) (delta, eps)-equilibrium.
"""

from __future__ import annotations

import math

from ..wardrop.network import WardropNetwork
from .smoothness import safe_update_period  # noqa: F401  (re-exported on purpose)


def _require_positive(name: str, value: float) -> None:
    """Raise naming ``name`` unless ``value > 0``.

    NaN fails; ``inf`` passes, since every closed form here has that limit.
    """
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


# --- Section 3.2: the two-link oscillation -----------------------------------


def oscillation_fixed_point(update_period: float) -> float:
    """Return the first-link share ``f_1(0) = 1/(e^{-T} + 1)`` of the 2T-cycle."""
    _require_positive("update_period", update_period)
    return 1.0 / (math.exp(-update_period) + 1.0)


def oscillation_amplitude(beta: float, update_period: float) -> float:
    """Return ``X = beta (1 - e^{-T}) / (2 e^{-T} + 2)``.

    This is the latency observed at the beginning of every phase along the
    oscillating best-response trajectory; the paper notes it is sustained by
    more than half of the agents.
    """
    if not beta >= 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    _require_positive("update_period", update_period)
    decayed = math.exp(-update_period)
    return beta * (1.0 - decayed) / (2.0 * decayed + 2.0)


def max_update_period_for_latency(beta: float, epsilon: float) -> float:
    """Return the largest ``T`` for which the oscillation latency stays <= eps.

    Inverting ``X(T) <= eps`` gives ``T <= ln((1 + 2 eps / beta) / (1 - 2 eps / beta))``,
    the paper's ``T = O(eps / beta)`` requirement.  Returns ``inf`` when
    ``2 eps >= beta`` (the latency can never exceed ``eps``) and 0 when
    ``eps <= 0``; NaN is rejected.
    """
    for name, value in (("beta", beta), ("epsilon", epsilon)):
        if math.isnan(value):
            raise ValueError(f"{name} must be a number, got {value}")
    if beta <= 0:
        return float("inf")
    if epsilon <= 0:
        return 0.0
    ratio = 2.0 * epsilon / beta
    if ratio >= 1.0:
        return float("inf")
    return math.log((1.0 + ratio) / (1.0 - ratio))


# --- Theorems 6 and 7: convergence-time bounds --------------------------------


def uniform_convergence_bound(
    network: WardropNetwork,
    update_period: float,
    delta: float,
    epsilon: float,
    constant: float = 2.0 * math.e,
) -> float:
    """Return the Theorem 6 bound on bad update periods for uniform sampling.

    The bound is ``constant * m / (eps * T) * (l_max / delta)^2`` with
    ``m = max_i |P_i|``; the default ``constant`` matches the explicit
    factor ``2 e`` appearing in the proof (the O-notation hides it).
    """
    _validate_bound_args(update_period, delta, epsilon)
    m = max(
        len(network.paths.commodity_paths(i)) for i in range(network.num_commodities)
    )
    l_max = network.max_latency()
    return constant * m / (epsilon * update_period) * (l_max / delta) ** 2


def proportional_convergence_bound(
    network: WardropNetwork,
    update_period: float,
    delta: float,
    epsilon: float,
    constant: float = 2.0 * math.e,
) -> float:
    """Return the Theorem 7 bound on bad update periods for proportional sampling.

    ``constant / (eps * T) * (l_max / delta)^2`` -- independent of the number
    of paths, which is the point of the proportional rule.
    """
    _validate_bound_args(update_period, delta, epsilon)
    l_max = network.max_latency()
    return constant / (epsilon * update_period) * (l_max / delta) ** 2


def theorem_update_period(network: WardropNetwork, alpha: float) -> float:
    """Return ``min(1/(4 D alpha beta), 1)``, the period Theorems 6 and 7 assume."""
    return min(safe_update_period(network, alpha), 1.0)


def _validate_bound_args(update_period: float, delta: float, epsilon: float) -> None:
    _require_positive("update_period", update_period)
    _require_positive("delta", delta)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
