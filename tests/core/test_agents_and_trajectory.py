"""Unit tests for the finite-agent simulator and the Trajectory container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import simulate_agent_batch
from repro.core import (
    Trajectory,
    replicator_policy,
    simulate,
    simulate_agents,
    uniform_policy,
)
from repro.core.agents import _largest_remainder
from repro.instances import lopsided_flow, two_link_network
from repro.wardrop import (
    FlowVector,
    potential,
    unsatisfied_volume,
    weakly_unsatisfied_volume,
)
from trajectory_arrays import boundary_trajectory


class TestLargestRemainder:
    def test_exact_split(self):
        assert list(_largest_remainder(np.array([0.5, 0.5]), 10)) == [5, 5]

    def test_total_preserved(self):
        counts = _largest_remainder(np.array([0.4, 0.35, 0.25]), 7)
        assert counts.sum() == 7

    def test_degenerate_weights(self):
        counts = _largest_remainder(np.array([0.0, 0.0]), 4)
        assert counts.sum() == 4


class TestAgentSimulation:
    def test_config_validation(self, two_links):
        policy = uniform_policy(two_links)
        with pytest.raises(ValueError, match="num_agents"):
            simulate_agents(two_links, policy, num_agents=0, update_period=0.1, horizon=1.0)
        with pytest.raises(ValueError, match="update_period"):
            simulate_agents(two_links, policy, num_agents=10, update_period=0.0, horizon=1.0)
        with pytest.raises(ValueError, match="num_agents must be a scalar"):
            simulate_agents(two_links, policy, num_agents=[10, 20], update_period=0.1, horizon=1.0)

    def test_flow_conservation(self, two_links):
        policy = uniform_policy(two_links)
        trajectory = simulate_agents(
            two_links, policy, num_agents=100, update_period=0.2, horizon=3.0, seed=0
        )
        for flow in trajectory.flows:
            assert flow.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(flow >= -1e-12)

    def test_reproducible_with_seed(self, two_links):
        policy = uniform_policy(two_links)
        a = simulate_agents(two_links, policy, 100, 0.2, 2.0, seed=42)
        b = simulate_agents(two_links, policy, 100, 0.2, 2.0, seed=42)
        assert np.allclose(a.final_flow.values(), b.final_flow.values())

    def test_moves_towards_equilibrium(self, two_links_steep):
        policy = replicator_policy(two_links_steep)
        period = policy.safe_update_period(two_links_steep)
        start = lopsided_flow(two_links_steep, 0.95)
        trajectory = simulate_agents(
            two_links_steep, policy, num_agents=2000, update_period=period,
            horizon=30.0, initial_flow=start, seed=3,
        )
        final_gap = abs(trajectory.final_flow.values()[0] - 0.5)
        initial_gap = abs(start.values()[0] - 0.5)
        assert final_gap < initial_gap / 2

    def test_approaches_fluid_limit_as_population_grows(self, two_links_steep):
        policy = replicator_policy(two_links_steep)
        period = policy.safe_update_period(two_links_steep)
        start = lopsided_flow(two_links_steep, 0.9)
        horizon = 10.0
        fluid = simulate(
            two_links_steep, policy, update_period=period, horizon=horizon, initial_flow=start
        )
        errors = []
        for n in [50, 2000]:
            finite = simulate_agents(
                two_links_steep, policy, num_agents=n, update_period=period,
                horizon=horizon, initial_flow=start, seed=7,
            )
            errors.append(abs(finite.final_flow.values()[0] - fluid.final_flow.values()[0]))
        assert errors[1] < errors[0]

    def test_initial_assignment_matches_flow(self, two_links):
        policy = uniform_policy(two_links)
        trajectory = simulate_agents(
            two_links, policy, num_agents=10, update_period=0.5, horizon=0.1, seed=0,
            initial_flow=FlowVector(two_links, [0.7, 0.3]),
        )
        assert trajectory.initial_flow.values() == pytest.approx([0.7, 0.3], abs=1e-9)

    def test_fresh_information_mode_conserves_flow(self, two_links):
        policy = uniform_policy(two_links)
        trajectory = simulate_agents(
            two_links, policy, num_agents=80, update_period=0.2, horizon=3.0,
            seed=5, stale=False,
        )
        assert trajectory.update_period == 0.0
        for flow in trajectory.flows:
            assert flow.sum() == pytest.approx(1.0, abs=1e-9)

    def test_final_assignment_reproduces_final_flow(self, two_links):
        policy = uniform_policy(two_links)
        result = simulate_agent_batch(two_links, policy, 50, 0.2, 2.0, seeds=9)
        assignment = result.assignments[0]
        assert len(assignment) == 50
        counts = np.bincount(assignment, minlength=two_links.num_paths)
        np.testing.assert_allclose(
            counts / 50, result.trajectory(0).final_flow.values(), atol=1e-12
        )


class TestTrajectory:
    def _trajectory(self, network) -> Trajectory:
        policy = uniform_policy(network)
        return simulate(
            network, policy, update_period=0.1, horizon=1.0,
            initial_flow=lopsided_flow(network, 0.9),
        )

    def test_basic_accessors(self, two_links):
        trajectory = self._trajectory(two_links)
        assert len(trajectory) == len(trajectory.times) == len(trajectory.flows)
        assert trajectory.initial_flow.values()[0] == pytest.approx(0.9)
        assert trajectory.times[0] == 0.0
        assert trajectory.flow_matrix().shape == (len(trajectory), two_links.num_paths)

    def test_traces_have_consistent_length(self, two_links):
        trajectory = self._trajectory(two_links)
        n = len(trajectory)
        assert len(trajectory.potential_trace()) == n
        assert len(trajectory.average_latency_trace()) == n
        assert len(trajectory.max_used_latency_trace()) == n
        assert len(trajectory.unsatisfied_trace(0.1)) == n
        assert len(trajectory.weakly_unsatisfied_trace(0.1)) == n

    def test_traces_are_the_one_row_measures(self, braess):
        trajectory = simulate(braess, uniform_policy(braess), update_period=0.1, horizon=1.0)
        rows = [FlowVector(braess, flow, validate=False) for flow in trajectory.flows]
        assert trajectory.potential_trace().tolist() == [potential(flow) for flow in rows]
        assert trajectory.average_latency_trace().tolist() == [
            flow.average_latency() for flow in rows
        ]
        assert trajectory.max_used_latency_trace().tolist() == [
            flow.max_used_latency() for flow in rows
        ]
        assert trajectory.unsatisfied_trace(0.05).tolist() == [
            unsatisfied_volume(flow, 0.05) for flow in rows
        ]
        assert trajectory.weakly_unsatisfied_trace(0.05).tolist() == [
            weakly_unsatisfied_volume(flow, 0.05) for flow in rows
        ]

    def test_rejects_arrays_of_the_wrong_shape(self, two_links):
        trajectory = self._trajectory(two_links)
        with pytest.raises(ValueError, match="phase_ends has shape"):
            Trajectory(
                network=two_links,
                times=trajectory.times,
                flows=trajectory.flows,
                sample_phases=trajectory.sample_phases,
                phases=trajectory.phases,
                phase_starts=trajectory.phase_starts,
                phase_ends=trajectory.phase_ends[1:],
            )

    def test_describe(self, two_links):
        trajectory = self._trajectory(two_links)
        text = trajectory.describe()
        assert "Trajectory" in text
        assert "phases" in text
        assert boundary_trajectory(two_links, [], []).describe() == "Trajectory(empty)"
