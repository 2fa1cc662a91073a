"""Equilibrium tracking: per-interval ground truth and the three metrics."""

import numpy as np
import pytest

from repro.core import replicator_policy, simulate, uniform_policy
from repro.instances import braess_network, pigou_network
from repro.scenarios import (
    LinkIncident,
    PiecewiseConstantSchedule,
    Scenario,
    interval_equilibria,
    time_to_reequilibrate,
    tracking_error,
    tracking_regret,
)
from trajectory_arrays import boundary_trajectory


def demand_step_scenario():
    return Scenario(demand=PiecewiseConstantSchedule([4.0], [1.0, 1.8]))


class TestIntervalEquilibria:
    def test_one_equilibrium_per_interval(self):
        network = pigou_network(degree=1)
        track = interval_equilibria(network, demand_step_scenario(), horizon=8.0)
        assert track.space == "path"
        np.testing.assert_array_equal(track.times, [0.0, 4.0])
        assert len(track.equilibria) == 2
        assert all(entry.converged for entry in track.equilibria)
        # Pigou with l(x) = x vs constant 1: equilibrium puts everything on
        # the nonlinear link; stretched demand raises its latency, so the
        # post-step equilibrium shifts mass to the constant link.
        before, after = track.equilibria
        assert not np.allclose(before.flow_values, after.flow_values)
        assert track.equilibrium_at(3.9) is before
        assert track.equilibrium_at(4.0) is after

    def test_cache_shared_across_rows(self):
        network = pigou_network(degree=1)
        cache = {}
        scenarios = [
            Scenario(demand=PiecewiseConstantSchedule([t], [1.0, 1.8]))
            for t in (2.0, 3.0, 5.0)
        ]
        solves = []
        for scenario in scenarios:
            track = interval_equilibria(network, scenario, horizon=8.0, cache=cache)
            solves.append(track.solves)
        # Three rows revisit the same two environment states: two solves for
        # the first row, zero fresh solves afterwards.
        assert solves == [2, 0, 0]

    def test_path_space_tracks_name_no_edge_method(self):
        """Path space has one solver, so its tracks and cache keys carry no
        edge-space method; edge-space tracks name the method that ran."""
        network = pigou_network(degree=1)
        cache = {}
        track = interval_equilibria(network, demand_step_scenario(), horizon=8.0, cache=cache)
        assert track.space == "path"
        assert track.method is None
        assert {key[-1] for key in cache} == {None}
        edge = interval_equilibria(
            network, demand_step_scenario(), horizon=8.0, space="edge", tolerance=1e-5
        )
        assert edge.method == "fw"

    def test_cache_distinguishes_networks(self):
        # Regression: the cache key used to be (modulation, space, tolerance)
        # only, so two *different* networks sharing one cache dict would
        # silently reuse each other's equilibria.  The key must carry the
        # network's identity.
        cache = {}
        linear = pigou_network(degree=1)
        quadratic = pigou_network(degree=2)
        track_linear = interval_equilibria(
            linear, demand_step_scenario(), horizon=8.0, cache=cache
        )
        track_quadratic = interval_equilibria(
            quadratic, demand_step_scenario(), horizon=8.0, cache=cache
        )
        # The second network must not be answered from the first one's cache:
        assert track_linear.solves == 2
        assert track_quadratic.solves == 2
        # ...and the equilibria are genuinely the two instances' own: both
        # saturate the nonlinear link, but its Beckmann potential differs
        # (integral of x vs x^2).
        assert (
            abs(
                track_linear.equilibria[0].potential
                - track_quadratic.equilibria[0].potential
            )
            > 0.05
        )

    def test_warm_start_and_method_are_threaded(self):
        network = braess_network()
        scenario = Scenario(
            incidents=[
                LinkIncident(("a", "b", 0), 3.0, 6.0, capacity_factor=0.0, closure_penalty=10.0)
            ]
        )
        cold = interval_equilibria(
            network, scenario, horizon=10.0, space="edge", tolerance=1e-6,
            warm_start=False,
        )
        warm = interval_equilibria(
            network, scenario, horizon=10.0, space="edge", tolerance=1e-6,
        )
        # Warm starting changes the iterates, never the answer.  (Whether it
        # *saves* iterations depends on the instance -- the Sioux Falls
        # acceptance benchmark in bench_solvers.py pins the saving.)
        assert cold.total_iterations > 0
        assert warm.total_iterations > 0
        for a, b in zip(cold.equilibria, warm.equilibria):
            assert a.converged and b.converged
            assert a.potential == pytest.approx(b.potential, abs=1e-6)
        accelerated = interval_equilibria(
            network, scenario, horizon=10.0, space="edge", tolerance=1e-6,
            method="bfw",
        )
        assert accelerated.method == "bfw"
        assert accelerated.equilibria[0].potential == pytest.approx(
            warm.equilibria[0].potential, abs=1e-6
        )
        # The per-interval iteration budget is honoured.
        budgeted = interval_equilibria(
            network, scenario, horizon=10.0, space="edge", tolerance=1e-12,
            max_iterations=2,
        )
        assert all(entry.iterations <= 2 for entry in budgeted.equilibria)

    def test_method_is_validated_against_the_resolved_space(self):
        network = braess_network()
        with pytest.raises(ValueError, match="newton"):
            interval_equilibria(
                network, demand_step_scenario(), horizon=8.0, space="edge",
                method="newton",
            )
        # Path space has one solver: an edge-space method raises there,
        # also when "auto" resolves to path space.
        for space in ("path", "auto"):
            with pytest.raises(ValueError, match="^method 'bfw'"):
                interval_equilibria(
                    network, demand_step_scenario(), horizon=8.0, space=space,
                    method="bfw",
                )

    def test_edge_space_on_request(self):
        network = braess_network()
        track = interval_equilibria(
            network, demand_step_scenario(), horizon=8.0, space="edge", tolerance=1e-5
        )
        assert track.space == "edge"
        assert track.oracle is not None
        for entry in track.equilibria:
            assert entry.edge_flows is not None
            assert entry.flow_values is None


class TestMetrics:
    def test_tracking_error_spikes_then_recovers(self):
        network = pigou_network(degree=1)
        policy = uniform_policy(network)
        # interior equilibria on both sides of the step: (1/6, 5/6) -> (4/9, 5/9)
        scenario = Scenario(demand=PiecewiseConstantSchedule([6.0], [1.2, 1.8]))
        trajectory = simulate(
            network, policy, update_period=0.1, horizon=12.0,
            scenario=scenario,
        )
        track = interval_equilibria(network, scenario, horizon=12.0)
        times, errors = tracking_error(trajectory, track)
        assert times.shape == errors.shape
        before = errors[(times > 5.5) & (times < 6.0)]
        spike = errors[(times >= 6.0) & (times < 6.3)]
        tail = errors[times > 11.0]
        # approaching the first target, jolted at the step, re-converged after
        assert before.max() < 0.25
        assert spike.max() > 0.3
        assert tail.max() < 0.05
        recovery = time_to_reequilibrate(times, errors, 6.0, tolerance=0.2)
        assert 0.0 < recovery < 4.0
        # an impossible tolerance never recovers
        assert time_to_reequilibrate(times, errors, 6.0, tolerance=-1.0) == float("inf")

    def test_tracking_regret_is_positive_and_bounded(self):
        network = pigou_network(degree=1)
        policy = uniform_policy(network)
        scenario = demand_step_scenario()
        trajectory = simulate(
            network, policy, update_period=0.2, horizon=8.0,
            scenario=scenario,
        )
        track = interval_equilibria(network, scenario, horizon=8.0)
        regret = tracking_regret(trajectory, track)
        # The equilibrium minimises the Beckmann potential, so the lagging
        # dynamics accumulate a strictly positive (but modest) potential gap.
        assert 0.0 < regret < 2.0

    def test_regret_vanishes_on_the_equilibrium(self):
        network = pigou_network(degree=1)
        scenario = demand_step_scenario()
        track = interval_equilibria(network, scenario, horizon=8.0)
        # A "trajectory" that sits on the instantaneous equilibrium of every
        # interval accrues (essentially) zero regret.
        times = np.arange(0.0, 8.01, 0.5)
        flows = [track.equilibrium_at(float(t)).flow_values for t in times]
        trajectory = boundary_trajectory(
            network, times, flows, policy_name="oracle", update_period=0.5
        )
        assert abs(tracking_regret(trajectory, track)) < 1e-6

    def test_incident_track_on_braess(self):
        network = braess_network()
        scenario = Scenario(
            incidents=[
                LinkIncident(("a", "b", 0), 3.0, 6.0, capacity_factor=0.0, closure_penalty=10.0)
            ]
        )
        track = interval_equilibria(network, scenario, horizon=10.0)
        np.testing.assert_array_equal(track.times, [0.0, 3.0, 6.0])
        # closing the shortcut lowers the equilibrium latency from 2 to 1.5
        assert track.equilibria[0].average_latency == pytest.approx(2.0, abs=1e-3)
        assert track.equilibria[1].average_latency == pytest.approx(1.5, abs=1e-3)
        assert track.equilibria[2].average_latency == pytest.approx(2.0, abs=1e-3)


class TestMetricEdgeCases:
    def test_reequilibration_on_empty_samples_never_recovers(self):
        assert time_to_reequilibrate(
            np.array([]), np.array([]), 0.0, tolerance=1.0
        ) == float("inf")

    def test_reequilibration_on_a_singleton_sample(self):
        times = np.array([5.0])
        assert time_to_reequilibrate(times, np.array([0.0]), 5.0, 0.1) == 0.0
        assert time_to_reequilibrate(times, np.array([0.5]), 5.0, 0.1) == float("inf")

    def test_reequilibration_breakpoint_past_the_recorded_range(self):
        times = np.arange(0.0, 5.0, 0.5)
        errors = np.zeros_like(times)
        assert time_to_reequilibrate(times, errors, 10.0, 0.1) == float("inf")

    def test_reequilibration_when_the_error_never_recovers(self):
        times = np.arange(0.0, 5.0, 0.5)
        errors = np.full_like(times, 2.0)
        assert time_to_reequilibrate(times, errors, 1.0, tolerance=1.0) == float("inf")

    def test_regret_of_empty_and_singleton_trajectories_is_zero(self):
        from repro.wardrop.flow import FlowVector

        network = pigou_network(degree=1)
        scenario = demand_step_scenario()
        track = interval_equilibria(network, scenario, horizon=8.0)
        empty = boundary_trajectory(network, [], [], policy_name="none", update_period=0.5)
        assert tracking_regret(empty, track) == 0.0
        singleton = boundary_trajectory(
            network, [0.0], [FlowVector.uniform(network).values()],
            policy_name="one", update_period=0.5,
        )
        # One sample spans no time, so the trapezoid integral is empty.
        assert tracking_regret(singleton, track) == 0.0
