"""Alpha-smoothness (Definition 2) and the safe update period of Lemma 4.

A migration rule ``mu`` is *alpha-smooth* if ``mu(l_P, l_Q) <= alpha *
(l_P - l_Q)`` whenever ``l_P >= l_Q``.  Lemma 4 / Corollary 5 of the paper
then guarantee convergence of the stale-information dynamics whenever the
bulletin board update period satisfies

    T <= T* = 1 / (4 * D * alpha * beta)

where ``D`` is the maximum path length and ``beta`` the maximum slope of the
latency functions.  This module provides

* an empirical alpha-smoothness verifier (samples latency pairs and measures
  the ratio ``mu / (l_P - l_Q)``),
* the safe-period computation for a network/policy pair,
* helpers to build the *largest* smooth policy for a prescribed update
  period (the "how much must I slow down?" question the paper answers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..wardrop.network import WardropNetwork
from ..wardrop.validation import require_positive
from .migration import MigrationRule, ScaledLinearMigration


@dataclass(frozen=True)
class SmoothnessCheck:
    """The result of empirically estimating a migration rule's smoothness.

    ``estimated_alpha`` is the largest observed ratio
    ``mu(l_P, l_Q) / (l_P - l_Q)``; ``is_smooth`` reports whether the ratio
    stayed bounded by ``claimed_alpha`` (when one was supplied).
    """

    estimated_alpha: float
    claimed_alpha: Optional[float]
    is_smooth: bool
    violations: int


def check_alpha_smoothness(
    rule: MigrationRule,
    max_latency: float,
    claimed_alpha: Optional[float] = None,
    samples: int = 400,
    seed: int = 0,
) -> SmoothnessCheck:
    """Empirically check Definition 2 for a migration rule.

    Latency pairs ``l_P > l_Q`` are sampled from ``[0, max_latency]``,
    including pairs with very small gaps where non-smooth rules (better
    response) blow up.  ``claimed_alpha`` defaults to the rule's own
    ``smoothness`` attribute.
    """
    if claimed_alpha is None:
        claimed_alpha = rule.smoothness
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    violations = 0
    for _ in range(samples):
        low = float(rng.uniform(0.0, max_latency))
        # Bias gaps towards zero: smoothness is a statement about small gaps.
        gap = float(rng.uniform(0.0, max_latency - low)) * float(rng.uniform(0.0, 1.0) ** 3)
        gap = max(gap, 1e-12)
        high = min(max_latency, low + gap)
        probability = float(rule.probability(high, low))
        if probability < 0.0:
            violations += 1
            continue
        ratio = probability / (high - low) if high > low else 0.0
        worst_ratio = max(worst_ratio, ratio)
        if claimed_alpha is not None and probability > claimed_alpha * (high - low) + 1e-9:
            violations += 1
    is_smooth = claimed_alpha is not None and violations == 0
    return SmoothnessCheck(
        estimated_alpha=worst_ratio,
        claimed_alpha=claimed_alpha,
        is_smooth=is_smooth,
        violations=violations,
    )


def safe_update_period(network: WardropNetwork, alpha: float) -> float:
    """Return the Lemma 4 safe update period ``T* = 1/(4 D alpha beta)``.

    Networks whose latency functions are all constant have ``beta = 0``; then
    any update period is safe and the function returns ``inf``.
    """
    require_positive("alpha", alpha)
    depth = network.max_path_length()
    beta = network.max_slope()
    if beta <= 0:
        return float("inf")
    return 1.0 / (4.0 * depth * alpha * beta)


def safe_update_period_for_rule(network: WardropNetwork, rule: MigrationRule) -> float:
    """Return the safe update period for a rule with known smoothness.

    Raises ``ValueError`` for rules that are not alpha-smooth (better
    response) since no positive update period is safe for them.
    """
    alpha = rule.smoothness
    if alpha is None:
        raise ValueError(f"{rule.name} is not alpha-smooth; no safe update period exists")
    return safe_update_period(network, alpha)


def max_safe_alpha(network: WardropNetwork, update_period: float) -> float:
    """Return the largest smoothness parameter safe for a given update period.

    Inverts ``T* = 1/(4 D alpha beta)``: given the bulletin board refresh
    interval that the environment imposes, this is how aggressive the
    migration rule may be -- the "slow down by a factor depending on T and
    beta" message of the paper.
    """
    require_positive("update_period", update_period)
    depth = network.max_path_length()
    beta = network.max_slope()
    if beta <= 0:
        return float("inf")
    return 1.0 / (4.0 * depth * beta * update_period)


def migration_rule_for_period(network: WardropNetwork, update_period: float) -> ScaledLinearMigration:
    """Return the most aggressive scaled-linear rule safe for ``update_period``."""
    return ScaledLinearMigration(max_safe_alpha(network, update_period))
