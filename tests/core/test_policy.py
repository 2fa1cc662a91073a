"""Unit tests for ReroutingPolicy: the factories and the rate field of Eq. (1)/(3).

``growth_rates`` evaluates one row's field ``df_P/dt = sum_Q (rho_QP - rho_PQ)``
through the engines' own path: the policy's tables on commodity blocks and
:func:`frozen_field`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ProportionalSampling,
    ReroutingPolicy,
    LinearMigration,
    better_response_policy,
    replicator_policy,
    scaled_policy,
    smoothed_best_response_policy,
    uniform_policy,
)
from repro.core.policy import PolicyStack, frozen_field
from repro.wardrop import FlowVector


def growth_rates(network, policy, current, posted, latencies):
    """One row's ``df/dt`` for a live flow ``current`` and a posted snapshot."""
    blocks = network.paths.blocks
    tables = PolicyStack.of([policy]).tables(blocks, posted[None], latencies[None])
    return frozen_field(blocks, *tables)(np.asarray(current)[None])[0]


class TestFactories:
    def test_uniform_policy_smoothness(self, two_links):
        policy = uniform_policy(two_links)
        assert policy.smoothness == pytest.approx(1.0 / two_links.max_latency())
        assert policy.label() == "uniform+linear"

    def test_replicator_policy(self, two_links):
        policy = replicator_policy(two_links)
        assert isinstance(policy.sampling, ProportionalSampling)
        assert policy.safe_update_period(two_links) > 0.0

    def test_better_response_policy_is_not_smooth(self):
        policy = better_response_policy()
        assert policy.smoothness is None

    def test_scaled_and_smoothed_policies(self, two_links):
        assert scaled_policy(2.0).smoothness == pytest.approx(2.0)
        policy = smoothed_best_response_policy(concentration=10.0, width=0.05)
        assert policy.smoothness == pytest.approx(20.0)

    @pytest.mark.parametrize("factory", [uniform_policy, replicator_policy])
    @pytest.mark.parametrize("max_latency", [0.0, float("nan")])
    def test_explicit_max_latency_is_used_not_replaced(self, two_links, factory, max_latency):
        """An explicit l_max of 0 or NaN is rejected, naming the field, instead of
        silently falling back to the network's l_max."""
        with pytest.raises(ValueError, match="max_latency"):
            factory(two_links, max_latency=max_latency)
        assert factory(two_links, max_latency=7.0).migration.max_latency == 7.0


class TestRates:
    def test_growth_rates_conserve_demand(self, braess):
        policy = uniform_policy(braess)
        flow = FlowVector.uniform(braess)
        rates = growth_rates(braess, policy, flow.values(), flow.values(), flow.path_latencies())
        for i in range(braess.num_commodities):
            indices = list(braess.paths.commodity_indices(i))
            assert np.sum(rates[indices]) == pytest.approx(0.0, abs=1e-12)

    def test_no_movement_at_equal_latencies(self, two_links):
        policy = uniform_policy(two_links)
        flow = FlowVector(two_links, [0.5, 0.5])
        rates = growth_rates(
            two_links, policy, flow.values(), flow.values(), flow.path_latencies()
        )
        assert np.allclose(rates, 0.0)

    def test_flow_moves_towards_cheaper_path(self, two_links):
        policy = uniform_policy(two_links)
        flow = FlowVector(two_links, [0.9, 0.1])
        rates = growth_rates(
            two_links, policy, flow.values(), flow.values(), flow.path_latencies()
        )
        assert rates[0] < 0.0
        assert rates[1] > 0.0

    def test_migration_rate_uses_stale_latencies(self, two_links):
        policy = uniform_policy(two_links)
        current = FlowVector(two_links, [0.5, 0.5])
        stale = FlowVector(two_links, [0.9, 0.1])
        # Live latencies are equal, but the posted (stale) ones are not, so the
        # policy keeps pushing flow towards the path that *looked* cheaper.
        rates = growth_rates(
            two_links, policy, current.values(), stale.values(), stale.path_latencies()
        )
        assert rates[1] > 0.0

    def test_rates_scale_with_current_flow(self, two_links):
        policy = uniform_policy(two_links)
        stale = FlowVector(two_links, [0.9, 0.1])
        latencies = stale.path_latencies()
        full = growth_rates(two_links, policy, stale.values(), stale.values(), latencies)
        half = growth_rates(two_links, policy, 0.5 * stale.values(), stale.values(), latencies)
        assert np.allclose(half, 0.5 * full)

    def test_replicator_rates_are_zero_on_unused_paths(self, two_links):
        policy = replicator_policy(two_links, exploration=0.0)
        flow = FlowVector(two_links, [1.0, 0.0])
        rates = growth_rates(
            two_links, policy, flow.values(), flow.values(), flow.path_latencies()
        )
        # Pure replicator: an unused path is never sampled, so nothing moves.
        assert np.allclose(rates, 0.0)

    def test_custom_policy_composition(self, braess):
        policy = ReroutingPolicy(
            sampling=ProportionalSampling(),
            migration=LinearMigration(braess.max_latency()),
            name="custom",
        )
        assert policy.label() == "custom"
        flow = FlowVector.uniform(braess)
        rates = growth_rates(braess, policy, flow.values(), flow.values(), flow.path_latencies())
        assert rates.shape == (braess.num_paths,)
