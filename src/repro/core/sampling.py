"""Sampling rules: the first step of the two-step rerouting policy.

When an agent of commodity ``i`` currently on path ``P`` is activated it
first *samples* an alternative path ``Q in P_i`` according to a probability
distribution ``sigma_PQ(f)`` (Section 2.2 of the paper).  The class of
policies analysed in the paper requires

* ``sigma_PQ`` continuous (in fact Lipschitz continuous) in the flow ``f``,
* ``sigma_PQ > 0`` for every path ``Q`` -- otherwise paths needed at the
  equilibrium could never be discovered.

The concrete rules implemented here are the two rules the paper analyses plus
the smoothed-best-response rule it discusses:

* :class:`UniformSampling` -- ``sigma_PQ = 1 / |P_i|`` (Theorem 6),
* :class:`ProportionalSampling` -- ``sigma_PQ = f_Q / r_i``, i.e. sample
  another agent of the same commodity and look at its path; combined with the
  linear migration rule this is the replicator dynamics (Theorem 7),
* :class:`SoftmaxSampling` -- ``sigma_PQ ∝ exp(-c * l_Q)``, which approaches
  best response as ``c`` grows (Section 2.2, Eq. before (2)),
* :class:`BestReplySampling` -- all mass on the posted minimum-latency paths
  (best response, Eq. 2/4; not continuous, so outside the smooth class).

Sampling only ever picks a path of the agent's own commodity, so sigma is
block-diagonal.  Each rule writes its formula once, on the padded commodity
blocks of :class:`~repro.wardrop.paths.CommodityBlocks`: it receives the
posted flows and path latencies of ``R`` rows as ``(R, C, K)`` arrays and
returns blocks that broadcast to ``(R, C, K, K)`` (entry ``[r, c, j, k]``
is the probability that an agent in slot ``j`` of commodity ``c`` samples
slot ``k``).  The rules here do not depend on the current path, so
they return ``(R, C, 1, K)``.  A rule's float parameters (listed in
``parameters``) may be ``(R, 1, 1)`` arrays: rows whose policies differ only
in those parameters are evaluated as one stacked instance (see
:class:`~repro.core.policy.PolicyStack`).

Sampling rules evaluate against the flow and latencies *posted on the
bulletin board*, not the live ones; the engines pass the stale values in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from ..wardrop.paths import CommodityBlocks
from ..wardrop.validation import require_positive

# Posted latencies this close to a commodity's minimum tie for best reply.
TIE_TOLERANCE = 1e-12


class SamplingRule(ABC):
    """A rule producing, per commodity, a distribution over sampled paths.

    ``parameters`` names the float attributes that may differ per row.
    Rows whose rules share a class are stacked into one instance with those
    attributes as ``(R, 1, 1)`` arrays; the default ``None`` marks a rule
    whose state is opaque, so only rows sharing the very same instance are
    evaluated together.
    """

    parameters: Optional[Tuple[str, ...]] = None

    @abstractmethod
    def probabilities(
        self,
        blocks: CommodityBlocks,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        """Return sampling blocks broadcasting to ``(R, C, K, K)``.

        ``posted_flows`` and ``posted_path_latencies`` are the bulletin-board
        snapshot of ``R`` rows as zero-padded ``(R, C, K)`` blocks.  Real
        slots of every block row must sum to one; padded slots must be zero.
        """

    @property
    def name(self) -> str:
        return type(self).__name__


class UniformSampling(SamplingRule):
    """Sample a path of the own commodity uniformly at random.

    ``sigma_PQ = 1 / |P_i|`` for all ``P, Q in P_i``; independent of the flow,
    hence trivially Lipschitz continuous and everywhere positive.
    """

    parameters = ()

    def probabilities(self, blocks, posted_flows, posted_path_latencies):
        return (blocks.valid / blocks.sizes[:, None])[None, :, None, :]


class ProportionalSampling(SamplingRule):
    """Sample a path proportionally to the flow using it (replicator sampling).

    ``sigma_PQ(f) = f_Q / r_i``: pick another agent of the commodity uniformly
    at random and consider its path.  To keep the rule strictly positive on
    all paths -- a requirement for convergence to equilibria whose support may
    include currently unused paths -- an ``exploration`` mass is mixed in
    uniformly (the paper's positivity requirement ``sigma_PQ > 0``).  A
    commodity whose posted flow is zero samples uniformly.
    """

    parameters = ("exploration",)

    def __init__(self, exploration: float = 1e-6):
        if not 0.0 <= exploration < 1.0:
            raise ValueError("exploration must lie in [0, 1)")
        self.exploration = float(exploration)

    def probabilities(self, blocks, posted_flows, posted_path_latencies):
        shares = np.maximum(posted_flows, 0.0)
        totals = shares.sum(axis=-1, keepdims=True)
        starved = totals <= 0
        if starved.any():
            shares = np.where(starved, blocks.valid, shares)
            totals = np.where(starved, blocks.sizes[:, None], totals)
        sizes = blocks.sizes[:, None]
        distribution = (1.0 - self.exploration) * (shares / totals) + self.exploration / sizes
        return (distribution * blocks.valid)[..., None, :]


class SoftmaxSampling(SamplingRule):
    """Smoothed best-response sampling ``sigma_PQ ∝ exp(-c * l_Q)``.

    For large ``c`` the distribution concentrates on the minimum-latency path
    and the combined policy approximates best response; the paper notes that
    such policies formally fit the smooth class but with a large smoothness
    parameter, and the benchmarks use this rule to interpolate between
    convergent and oscillating behaviour.
    """

    parameters = ("concentration",)

    def __init__(self, concentration: float = 1.0):
        require_positive("concentration", concentration)
        self.concentration = float(concentration)

    def probabilities(self, blocks, posted_flows, posted_path_latencies):
        latencies = np.where(blocks.valid, posted_path_latencies, np.inf)
        # Subtract the minimum before exponentiating for numerical safety;
        # padded slots score exp(-inf) = 0.
        scores = np.exp(-self.concentration * (latencies - latencies.min(axis=-1, keepdims=True)))
        return (scores / scores.sum(axis=-1, keepdims=True))[..., None, :]


class BestReplySampling(SamplingRule):
    """Sample a posted minimum-latency path of the own commodity, ties split evenly.

    ``sigma_PQ = 1 / |B_i|`` on the paths ``B_i`` whose posted latency is
    within :data:`TIE_TOLERANCE` of the commodity's minimum.  With
    :class:`~repro.core.migration.UnitMigration` this is best response.
    """

    parameters = ()

    def probabilities(self, blocks, posted_flows, posted_path_latencies):
        latencies = np.where(blocks.valid, posted_path_latencies, np.inf)
        winners = latencies <= latencies.min(axis=-1, keepdims=True) + TIE_TOLERANCE
        return (winners / winners.sum(axis=-1, keepdims=True))[..., None, :]
