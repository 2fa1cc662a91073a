"""Migration rules: the second step of the two-step rerouting policy.

Having sampled a path ``Q``, the agent migrates from its current path ``P``
to ``Q`` with probability ``mu(l_P, l_Q)`` evaluated on the *posted* (stale)
latencies.  The paper requires, for convergence,

* ``mu(l_P, l_Q) = 0`` whenever ``l_Q >= l_P`` (migration is selfish),
* ``mu`` Lipschitz continuous and non-negative,
* **alpha-smoothness** (Definition 2): ``mu(l_P, l_Q) <= alpha * (l_P - l_Q)``
  for all ``l_P >= l_Q``.

The rules implemented here:

* :class:`BetterResponseMigration` -- switch whenever the sampled path is
  better.  NOT alpha-smooth for any alpha; included as the paper's negative
  example (it oscillates under stale information).
* :class:`LinearMigration` -- ``mu = (l_P - l_Q) / l_max``; this is
  ``1/l_max``-smooth and is the rule analysed in Theorems 6 and 7.
* :class:`ScaledLinearMigration` -- ``mu = min(1, alpha * (l_P - l_Q))`` for a
  caller-chosen ``alpha``; used to sweep the smoothness parameter in the
  staleness-threshold benchmark.
* :class:`SmoothedBetterResponseMigration` -- a steep but Lipschitz ramp that
  approximates better response while technically remaining alpha-smooth with
  a large alpha.
* :class:`UnitMigration` -- always move; with best-reply sampling, best response.

Each rule writes its formula once, in :meth:`MigrationRule.probability`,
elementwise on broadcastable arrays (plain floats work too, which is how
:func:`~repro.core.smoothness.check_alpha_smoothness` probes it).
:meth:`MigrationRule.matrix` evaluates it on every ordered pair of a
commodity block of posted latencies, ``(..., C, K) -> (..., C, K, K)``,
and zeroes the diagonal and the padding.  Float parameters (listed in
``parameters``) may be ``(R, 1, 1, 1)`` arrays, so rows whose policies
differ only in them are evaluated as one stacked instance (see
:class:`~repro.core.policy.PolicyStack`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from ..wardrop.paths import CommodityBlocks
from ..wardrop.validation import require_positive


class MigrationRule(ABC):
    """A migration-probability function ``mu(l_P, l_Q) in [0, 1]``.

    ``parameters`` names the float attributes that may differ per row; the
    default ``None`` marks a rule whose state is opaque, so only rows
    sharing the very same instance are evaluated together.
    """

    parameters: Optional[Tuple[str, ...]] = None

    @abstractmethod
    def probability(self, latency_from, latency_to):
        """Return ``mu(l_P, l_Q)``, elementwise on broadcastable arrays or floats."""

    def matrix(self, blocks: CommodityBlocks, path_latencies: np.ndarray) -> np.ndarray:
        """Return ``mu[..., c, j, k] = mu(l_j, l_k)`` for ``(..., C, K)`` posted latency blocks."""
        mu = self.probability(path_latencies[..., :, None], path_latencies[..., None, :])
        return np.where(blocks.pairs, mu, 0.0)

    @property
    def smoothness(self) -> Optional[float]:
        """Return the smallest known alpha for which the rule is alpha-smooth.

        ``None`` means the rule is not alpha-smooth for any finite alpha
        (e.g. better response).
        """
        return None

    @property
    def name(self) -> str:
        return type(self).__name__


class BetterResponseMigration(MigrationRule):
    """Switch with probability one whenever the sampled path is strictly better.

    The canonical *non-smooth* rule: it is discontinuous at ``l_P = l_Q`` and
    therefore not alpha-smooth for any alpha.  Under stale information the
    combination with (almost) any sampling rule oscillates; the paper uses the
    two-link instance to show this analytically for best response.
    """

    parameters = ()

    def probability(self, latency_from, latency_to):
        return np.where(np.subtract(latency_from, latency_to) > 0.0, 1.0, 0.0)


def _capped_ramp(scaled):
    """Clip a ramp ``scaled`` (same sign as the latency gap) to ``[0, 1]``."""
    return np.minimum(1.0, np.maximum(scaled, 0.0))


class LinearMigration(MigrationRule):
    """The paper's linear migration policy ``mu = max(0, (l_P - l_Q) / l_max)``.

    ``l_max`` must be an upper bound on any path latency, which makes the
    probability always lie in ``[0, 1]`` and the rule ``1/l_max``-smooth.
    """

    parameters = ("max_latency",)

    def __init__(self, max_latency: float):
        require_positive("max_latency", max_latency)
        self.max_latency = float(max_latency)

    def probability(self, latency_from, latency_to):
        return _capped_ramp(np.subtract(latency_from, latency_to) / self.max_latency)

    @property
    def smoothness(self) -> Optional[float]:
        return 1.0 / self.max_latency

    def __repr__(self) -> str:
        return f"LinearMigration(l_max={self.max_latency})"


class ScaledLinearMigration(MigrationRule):
    """``mu = min(1, alpha * (l_P - l_Q))`` for a chosen smoothness ``alpha``.

    Sweeping ``alpha`` (equivalently, sweeping the effective update period
    against the safe period ``T* = 1/(4 D alpha beta)``) is how the
    staleness-threshold benchmark probes the sharpness of Lemma 4.

    Note the rule is exactly ``alpha``-smooth as long as
    ``alpha * (l_P - l_Q) <= 1`` on the reachable latency range; the cap at 1
    only makes it *smoother*.
    """

    parameters = ("alpha",)

    def __init__(self, alpha: float):
        require_positive("alpha", alpha)
        self.alpha = float(alpha)

    def probability(self, latency_from, latency_to):
        return _capped_ramp(self.alpha * np.subtract(latency_from, latency_to))

    @property
    def smoothness(self) -> Optional[float]:
        return self.alpha

    def __repr__(self) -> str:
        return f"ScaledLinearMigration(alpha={self.alpha})"


class SmoothedBetterResponseMigration(MigrationRule):
    """A steep ramp ``mu = min(1, (l_P - l_Q) / width)`` approximating better response.

    For small ``width`` the rule behaves almost like better response but is
    Lipschitz with constant ``1/width``; it fits the smooth class only with a
    very large smoothness parameter, so the safe update period shrinks like
    ``width`` -- exactly the trade-off the paper describes for smoothed best
    response.
    """

    parameters = ("width",)

    def __init__(self, width: float):
        require_positive("width", width)
        self.width = float(width)

    def probability(self, latency_from, latency_to):
        return _capped_ramp(np.subtract(latency_from, latency_to) / self.width)

    @property
    def smoothness(self) -> Optional[float]:
        return 1.0 / self.width

    def __repr__(self) -> str:
        return f"SmoothedBetterResponseMigration(width={self.width})"


class UnitMigration(MigrationRule):
    """Always migrate to the sampled path (``mu = 1``): best response's second step."""

    parameters = ()

    def probability(self, latency_from, latency_to):
        return np.ones(np.broadcast(latency_from, latency_to).shape)
