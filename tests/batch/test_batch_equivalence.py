"""B-invariance: row ``r`` of a ``B``-row run equals the one-row run.

``simulate`` is the one-row case of the batched engine, so these tests pin
down that a row's arithmetic does not depend on the batch it runs in: for
Pigou and Braess, under stale and fresh information, for mixed per-row
update periods, for custom policy components and
for per-row policies, every recorded sample of every row must equal the
one-row ``simulate`` run bit for bit.  ``tests/core/test_reference_dynamics.py``
checks the one-row runs themselves against an independent solver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchConfig, BatchSimulator, simulate_batch
from repro.core import (
    ReroutingPolicy,
    replicator_policy,
    scaled_policy,
    simulate,
    uniform_policy,
)
from repro.core.migration import MigrationRule
from repro.core.sampling import SamplingRule
from repro.instances import braess_network, pigou_network
from repro.wardrop import FlowVector


def assert_rows_match_one_row_runs(network, policies, periods, horizon, starts, stale,
                                   steps_per_phase=10):
    """Run the batch and every row alone, and compare trajectories."""
    policy_list = policies if isinstance(policies, list) else [policies] * len(periods)
    result = simulate_batch(
        network, policies, periods, horizon,
        initial_flows=starts, stale=stale,
        steps_per_phase=steps_per_phase,
    )
    for row, (policy, period, start) in enumerate(zip(policy_list, periods, starts)):
        alone = simulate(
            network, policy, update_period=period, horizon=horizon,
            initial_flow=start, stale=stale,
        )
        batched = result.trajectory(row)
        assert len(batched) == len(alone)
        assert len(batched.phases) == len(alone.phases)
        np.testing.assert_array_equal(batched.times, alone.times)
        np.testing.assert_array_equal(batched.flow_matrix(), alone.flow_matrix())
        np.testing.assert_array_equal(batched.sample_phases, alone.sample_phases)
        np.testing.assert_array_equal(batched.phases, alone.phases)
        np.testing.assert_array_equal(batched.phase_starts, alone.phase_starts)
        np.testing.assert_array_equal(batched.phase_ends, alone.phase_ends)


class TestPigouProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        period=st.floats(min_value=0.05, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
        stale=st.booleans(),
    )
    def test_single_row_is_batch_invariant(self, period, seed, stale):
        network = pigou_network(degree=2)
        policy = replicator_policy(network)
        rng = np.random.default_rng(seed)
        starts = [FlowVector.random(network, rng) for _ in range(3)]
        periods = [period, 0.11, 0.17]
        assert_rows_match_one_row_runs(network, policy, periods, 1.0, starts, stale)


class TestBraess:
    @pytest.mark.parametrize("stale", [True, False])
    def test_uniform_policy_is_batch_invariant(self, stale):
        network = braess_network()
        policy = uniform_policy(network)
        rng = np.random.default_rng(7)
        starts = [FlowVector.random(network, rng) for _ in range(4)]
        periods = [0.05, 0.07, 0.1, 0.25]
        assert_rows_match_one_row_runs(network, policy, periods, 1.3, starts, stale)

    def test_replicator_fresh_is_batch_invariant(self):
        network = braess_network()
        policy = replicator_policy(network)
        starts = [FlowVector.uniform(network)] * 3
        periods = [0.06, 0.1, 0.15]
        assert_rows_match_one_row_runs(
            network, policy, periods, 0.9, starts, stale=False
        )


class TestMixedPeriods:
    def test_rows_with_different_periods_and_horizontally_truncated_phases(self):
        """Periods that do not divide the horizon exercise truncated phases."""
        network = pigou_network(degree=1)
        policy = replicator_policy(network)
        rng = np.random.default_rng(3)
        starts = [FlowVector.random(network, rng) for _ in range(5)]
        periods = [0.03, 0.09, 0.13, 0.4, 1.7]
        assert_rows_match_one_row_runs(network, policy, periods, 1.1, starts, stale=True)

    def test_mixed_periods_fresh_information(self):
        network = braess_network()
        policy = uniform_policy(network)
        starts = [FlowVector.uniform(network)] * 3
        assert_rows_match_one_row_runs(
            network, policy, [0.04, 0.11, 0.35], 0.8, starts, stale=False
        )


class SquaredGapMigration(MigrationRule):
    """A custom migration rule: one array formula, no declared parameters."""

    def probability(self, latency_from, latency_to):
        gap = np.subtract(latency_from, latency_to)
        return np.where(gap > 0, np.minimum(1.0, gap**2), 0.0)


class EveryOtherSampling(SamplingRule):
    """A custom sampling rule that depends on the current path: an agent
    samples every slot of its commodity but its own with equal probability
    (its own slot too when the commodity has one path)."""

    def probabilities(self, blocks, posted_flows, posted_path_latencies):
        others = blocks.pairs | ~blocks.pairs.any(axis=-1, keepdims=True) & blocks.valid[:, None]
        return (others / others.sum(axis=-1, keepdims=True))[None]


class TestCustomRules:
    def test_custom_policy_matches_one_row_runs(self):
        """Custom rules written as array formulas run batched and match their one-row runs."""
        network = braess_network()
        policy = ReroutingPolicy(
            sampling=EveryOtherSampling(), migration=SquaredGapMigration(), name="custom"
        )
        starts = [FlowVector.uniform(network)] * 2
        assert_rows_match_one_row_runs(network, policy, [0.1, 0.22], 0.9, starts, stale=True)

    def test_per_row_policies(self):
        """A list of per-row policies (different smoothness) matches one-row runs."""
        network = pigou_network(degree=1)
        policies = [scaled_policy(alpha) for alpha in (0.5, 1.0, 2.0)]
        starts = [FlowVector.uniform(network)] * 3
        periods = [0.1, 0.1, 0.15]
        assert_rows_match_one_row_runs(network, policies, periods, 1.0, starts, stale=True)


class TestConfigValidation:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            BatchConfig(update_periods=np.array([0.1, -0.2]))

    def test_rejects_wrong_policy_count(self):
        network = pigou_network(degree=1)
        config = BatchConfig(update_periods=np.array([0.1, 0.2]), horizons=1.0)
        with pytest.raises(ValueError):
            BatchSimulator(network, [replicator_policy(network)], config)

    def test_rejects_wrong_initial_shape(self):
        network = pigou_network(degree=1)
        config = BatchConfig(update_periods=np.array([0.1, 0.2]), horizons=1.0)
        simulator = BatchSimulator(network, replicator_policy(network), config)
        with pytest.raises(ValueError):
            simulator.run(np.zeros((3, network.num_paths)))
