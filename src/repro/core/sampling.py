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
  best response as ``c`` grows (Section 2.2, Eq. before (2)).

Sampling rules evaluate against the flow and latencies *posted on the
bulletin board*, not the live ones; the simulator passes the stale values in.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod

import numpy as np

from ..wardrop.network import WardropNetwork
from ..wardrop.paths import PathSet


class SamplingRule(ABC):
    """A rule producing, per commodity, a distribution over sampled paths.

    Implementations return a matrix ``sigma`` of shape ``(|P|, |P|)`` whose
    entry ``sigma[p, q]`` is the probability that an agent on (global) path
    ``p`` samples path ``q``.  Rows corresponding to paths of commodity ``i``
    place probability only on paths of the same commodity and sum to one.
    """

    @abstractmethod
    def probabilities(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        """Return the sampling matrix for the posted (bulletin-board) state."""

    def probabilities_batch(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        """Return a ``(B, P, P)`` stack of sampling matrices, one per batch row.

        ``posted_flows`` and ``posted_path_latencies`` have shape ``(B, P)``.
        The default loops over the rows and calls :meth:`probabilities`, so
        custom sampling rules work in the batched engine unchanged; the
        built-in rules override this with a vectorised implementation that
        performs the same floating-point operations row by row.
        """
        return np.stack(
            [
                self.probabilities(network, posted_flows[b], posted_path_latencies[b])
                for b in range(posted_flows.shape[0])
            ]
        )

    def validate(self, sigma: np.ndarray, network: WardropNetwork, tolerance: float = 1e-9) -> None:
        """Check that ``sigma`` is a proper within-commodity stochastic matrix."""
        if sigma.shape != (network.num_paths, network.num_paths):
            raise ValueError("sampling matrix has the wrong shape")
        if np.any(sigma < -tolerance):
            raise ValueError("sampling probabilities must be non-negative")
        for i in range(network.num_commodities):
            indices = np.fromiter(network.paths.commodity_indices(i), dtype=int)
            block = sigma[np.ix_(indices, indices)]
            row_sums = block.sum(axis=1)
            if np.any(np.abs(row_sums - 1.0) > 1e-6):
                raise ValueError(f"sampling rows of commodity {i} do not sum to one")
            outside = sigma[np.ix_(indices, np.setdiff1d(np.arange(network.num_paths), indices))]
            if outside.size and np.any(np.abs(outside) > tolerance):
                raise ValueError("sampling leaks probability across commodities")

    @property
    def name(self) -> str:
        return type(self).__name__


class UniformSampling(SamplingRule):
    """Sample a path of the own commodity uniformly at random.

    ``sigma_PQ = 1 / |P_i|`` for all ``P, Q in P_i``; independent of the flow,
    hence trivially Lipschitz continuous and everywhere positive.
    """

    def probabilities(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        # Flow-independent: built once per path set and shared read-only.
        sigma = _UNIFORM_TEMPLATES.get(network.paths)
        if sigma is None:
            sigma = np.zeros((network.num_paths, network.num_paths))
            for start, stop in network.paths.commodity_slices():
                sigma[start:stop, start:stop] = 1.0 / (stop - start)
            sigma.setflags(write=False)
            _UNIFORM_TEMPLATES[network.paths] = sigma
        return sigma

    def probabilities_batch(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        template = self.probabilities(network, posted_flows[0], posted_path_latencies[0])
        return np.broadcast_to(template, (posted_flows.shape[0],) + template.shape)


_UNIFORM_TEMPLATES: "weakref.WeakKeyDictionary[PathSet, np.ndarray]" = weakref.WeakKeyDictionary()


class ProportionalSampling(SamplingRule):
    """Sample a path proportionally to the flow using it (replicator sampling).

    ``sigma_PQ(f) = f_Q / r_i``: pick another agent of the commodity uniformly
    at random and consider its path.  To keep the rule strictly positive on
    all paths -- a requirement for convergence to equilibria whose support may
    include currently unused paths -- an ``exploration`` mass is mixed in
    uniformly (the paper's positivity requirement ``sigma_PQ > 0``).
    """

    def __init__(self, exploration: float = 1e-6):
        if not 0.0 <= exploration < 1.0:
            raise ValueError("exploration must lie in [0, 1)")
        self.exploration = float(exploration)

    def probabilities(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        return self.probabilities_batch(
            network, posted_flows[None, :], posted_path_latencies[None, :]
        )[0]

    def probabilities_batch(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        batch = posted_flows.shape[0]
        sigma = np.zeros((batch, network.num_paths, network.num_paths))
        for start, stop in network.paths.commodity_slices():
            count = stop - start
            shares = np.maximum(posted_flows[:, start:stop], 0.0)
            totals = shares.sum(axis=1)
            starved = totals <= 0
            distribution = shares / np.where(starved, 1.0, totals)[:, None]
            distribution[starved] = 1.0 / count
            if self.exploration > 0:
                distribution = (1.0 - self.exploration) * distribution + self.exploration / count
            sigma[:, start:stop, start:stop] = distribution[:, None, :]
        return sigma


class SoftmaxSampling(SamplingRule):
    """Smoothed best-response sampling ``sigma_PQ ∝ exp(-c * l_Q)``.

    For large ``c`` the distribution concentrates on the minimum-latency path
    and the combined policy approximates best response; the paper notes that
    such policies formally fit the smooth class but with a large smoothness
    parameter, and the benchmarks use this rule to interpolate between
    convergent and oscillating behaviour.
    """

    def __init__(self, concentration: float = 1.0):
        if concentration <= 0:
            raise ValueError("concentration parameter c must be positive")
        self.concentration = float(concentration)

    def probabilities(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        return self.probabilities_batch(
            network, posted_flows[None, :], posted_path_latencies[None, :]
        )[0]

    def probabilities_batch(
        self,
        network: WardropNetwork,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        batch = posted_flows.shape[0]
        sigma = np.zeros((batch, network.num_paths, network.num_paths))
        for start, stop in network.paths.commodity_slices():
            latencies = posted_path_latencies[:, start:stop]
            # Subtract the minimum before exponentiating for numerical safety.
            scores = np.exp(
                -self.concentration * (latencies - latencies.min(axis=1, keepdims=True))
            )
            distribution = scores / scores.sum(axis=1, keepdims=True)
            sigma[:, start:stop, start:stop] = distribution[:, None, :]
        return sigma
