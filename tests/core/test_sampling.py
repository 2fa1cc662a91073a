"""Unit tests for the sampling rules, on commodity blocks.

Each rule's ``(R, C, 1, K)`` blocks are checked against the formula written
out here, on a ragged two-commodity network (three and two paths) whose
padded slot must stay zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProportionalSampling, SoftmaxSampling, UniformSampling
from repro.wardrop import FlowVector


def posted_blocks(network, values):
    """The network's blocks and the posted ``(1, C, K)`` flow and latency blocks."""
    flow = FlowVector(network, values)
    blocks = network.paths.blocks
    return blocks, blocks.gather(flow.values()[None]), blocks.gather(flow.path_latencies()[None])


def assert_stochastic(sigma, blocks):
    """Non-negative, zero on padding, every real block row sums to one."""
    sigma = np.broadcast_to(sigma, sigma.shape[:2] + (blocks.shape[1],) * 2)
    assert (sigma >= 0).all()
    assert (sigma[..., ~blocks.valid[:, None, :].repeat(blocks.shape[1], axis=1)] == 0).all()
    sums = sigma.sum(axis=-1)[:, blocks.valid]
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


def by_commodity(network, values):
    """Split a ``(P,)`` vector into per-commodity pieces."""
    return [values[a:b] for a, b in network.paths.commodity_slices()]


class TestUniformSampling:
    def test_blocks_are_one_over_the_commodity_size(self, ragged):
        blocks, flows, latencies = posted_blocks(ragged, [0.2, 0.3, 0.1, 0.1, 0.3])
        sigma = UniformSampling().probabilities(blocks, flows, latencies)
        assert sigma.shape == (1, 2, 1, 3)
        np.testing.assert_array_equal(sigma[0, :, 0], [[1 / 3] * 3, [1 / 2, 1 / 2, 0.0]])
        assert_stochastic(sigma, blocks)

    def test_independent_of_flow(self, two_links):
        rule = UniformSampling()
        a = rule.probabilities(*posted_blocks(two_links, [0.9, 0.1]))
        b = rule.probabilities(*posted_blocks(two_links, [0.2, 0.8]))
        assert np.array_equal(a, b)


class TestProportionalSampling:
    def test_matches_the_formula_per_commodity(self, ragged):
        values = np.array([0.1, 0.0, 0.5, 0.3, 0.1])
        blocks, flows, latencies = posted_blocks(ragged, values)
        exploration = 0.05
        sigma = ProportionalSampling(exploration).probabilities(blocks, flows, latencies)
        assert sigma.shape == (1, 2, 1, 3)
        for c, shares in enumerate(by_commodity(ragged, values)):
            expected = (1 - exploration) * shares / shares.sum() + exploration / len(shares)
            np.testing.assert_allclose(sigma[0, c, 0, : len(shares)], expected, rtol=0, atol=1e-15)
        assert sigma[0, 1, 0, 2] == 0.0
        assert_stochastic(sigma, blocks)

    def test_matches_flow_shares(self, two_links):
        sigma = ProportionalSampling(exploration=0.0).probabilities(
            *posted_blocks(two_links, [0.7, 0.3])
        )
        np.testing.assert_allclose(sigma[0, 0, 0], [0.7, 0.3])

    def test_exploration_keeps_probabilities_positive(self, two_links):
        sigma = ProportionalSampling(exploration=0.01).probabilities(
            *posted_blocks(two_links, [1.0, 0.0])
        )
        assert sigma[0, 0, 0, 1] > 0.0

    def test_zero_posted_flow_samples_uniformly(self, ragged):
        blocks, _, latencies = posted_blocks(ragged, [0.2, 0.2, 0.2, 0.2, 0.2])
        sigma = ProportionalSampling().probabilities(blocks, np.zeros((1, 2, 3)), latencies)
        np.testing.assert_allclose(sigma[0, :, 0], [[1 / 3] * 3, [1 / 2, 1 / 2, 0.0]])

    @pytest.mark.parametrize("exploration", [1.0, -0.1, float("nan")])
    def test_rejects_bad_exploration(self, exploration):
        with pytest.raises(ValueError, match="exploration"):
            ProportionalSampling(exploration=exploration)


class TestSoftmaxSampling:
    def test_matches_the_formula_per_commodity(self, ragged):
        values = np.array([0.1, 0.3, 0.2, 0.3, 0.1])
        blocks, flows, latencies = posted_blocks(ragged, values)
        sigma = SoftmaxSampling(concentration=3.0).probabilities(blocks, flows, latencies)
        path_latencies = ragged.path_latencies(values)
        for c, costs in enumerate(by_commodity(ragged, path_latencies)):
            scores = np.exp(-3.0 * costs)
            np.testing.assert_allclose(
                sigma[0, c, 0, : len(costs)], scores / scores.sum(), rtol=1e-13
            )
        assert sigma[0, 1, 0, 2] == 0.0
        assert_stochastic(sigma, blocks)

    def test_prefers_low_latency_paths(self, two_links):
        sigma = SoftmaxSampling(concentration=5.0).probabilities(
            *posted_blocks(two_links, [0.9, 0.1])
        )
        # Path 1 (empty link) has lower latency and must get more probability.
        assert sigma[0, 0, 0, 1] > sigma[0, 0, 0, 0]

    def test_large_concentration_approaches_best_response(self, two_links):
        sigma = SoftmaxSampling(concentration=500.0).probabilities(
            *posted_blocks(two_links, [0.9, 0.1])
        )
        assert sigma[0, 0, 0, 1] == pytest.approx(1.0, abs=1e-3)

    def test_small_concentration_approaches_uniform(self, two_links):
        sigma = SoftmaxSampling(concentration=1e-6).probabilities(
            *posted_blocks(two_links, [0.9, 0.1])
        )
        assert sigma[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("concentration", [0.0, float("nan"), float("inf")])
    def test_rejects_bad_concentration(self, concentration):
        with pytest.raises(ValueError, match="concentration"):
            SoftmaxSampling(concentration)


@pytest.mark.parametrize(
    "make, name, values",
    [
        (ProportionalSampling, "exploration", [0.0, 0.01, 0.3]),
        (SoftmaxSampling, "concentration", [0.5, 2.0, 40.0]),
    ],
)
def test_stacked_parameters_equal_their_rows(ragged, make, name, values):
    """A rule with an ``(R, 1, 1)`` parameter equals its one-row evaluations bit for bit."""
    rng = np.random.default_rng(3)
    rows = [FlowVector.random(ragged, rng).values() for _ in values]
    blocks = ragged.paths.blocks
    flows = blocks.gather(np.stack(rows))
    latencies = blocks.gather(ragged.path_latencies(np.stack(rows)))
    stacked = make(values[0])
    setattr(stacked, name, np.array(values).reshape(-1, 1, 1))
    together = stacked.probabilities(blocks, flows, latencies)
    for row, value in enumerate(values):
        alone = make(value).probabilities(blocks, flows[row : row + 1], latencies[row : row + 1])
        assert np.array_equal(together[row], alone[0])
