"""Unit tests for best-response dynamics and the paper's closed-form bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    best_reply_target,
    max_update_period_for_latency,
    oscillation_amplitude,
    oscillation_fixed_point,
    proportional_convergence_bound,
    simulate_best_response,
    theorem_update_period,
    two_link_best_response_flow,
    uniform_convergence_bound,
)
from repro.instances import (
    braess_network,
    identical_linear_links,
    oscillation_initial_flow,
    two_link_network,
)
from repro.wardrop import FlowVector, equilibrium_violation


class TestBestReplyTarget:
    def test_routes_all_demand_to_cheapest(self, pigou):
        latencies = np.array([1.0, 0.3])
        target = best_reply_target(pigou, latencies)
        assert target[1] == pytest.approx(1.0)

    def test_splits_ties_evenly(self, two_links):
        latencies = np.array([0.4, 0.4])
        target = best_reply_target(two_links, latencies)
        assert target == pytest.approx([0.5, 0.5])


class TestBestResponseDynamics:
    def test_converges_with_fresh_information(self):
        network = two_link_network(beta=1.0)
        trajectory = simulate_best_response(
            network,
            update_period=0.01,
            horizon=10.0,
            initial_flow=FlowVector(network, [0.9, 0.1]),
            stale=False,
        )
        assert equilibrium_violation(trajectory.final_flow) < 1e-2

    def test_oscillates_from_paper_initial_condition(self):
        period = 0.5
        network = two_link_network(beta=2.0)
        start = oscillation_initial_flow(network, period)
        trajectory = simulate_best_response(
            network, update_period=period, horizon=20.0, initial_flow=start
        )
        starts = trajectory.phase_starts[:, 0]
        # Period-2 cycle: every other phase start returns to the same share.
        assert np.allclose(starts[0::2], starts[0], atol=1e-9)
        assert np.allclose(starts[1::2], starts[1], atol=1e-9)
        assert abs(starts[0] - starts[1]) > 0.1

    def test_closed_form_matches_simulation(self):
        period = 0.3
        network = two_link_network(beta=1.0)
        start_share = 0.8
        trajectory = simulate_best_response(
            network,
            update_period=period,
            horizon=3.0,
            initial_flow=FlowVector(network, [start_share, 1 - start_share]),
            samples_per_phase=1,
        )
        for (_, end_time), end in zip(trajectory.phases, trajectory.phase_ends):
            expected = two_link_best_response_flow(start_share, period, end_time)
            assert end[0] == pytest.approx(expected, abs=1e-9)

    def test_converges_on_asymmetric_parallel_links(self):
        # With fresh info best response converges even on multi-link instances.
        network = identical_linear_links(4)
        trajectory = simulate_best_response(
            network, update_period=0.01, horizon=15.0, stale=False
        )
        assert equilibrium_violation(trajectory.final_flow) < 5e-2

    def test_rejects_bad_arguments(self, two_links):
        with pytest.raises(ValueError):
            simulate_best_response(two_links, update_period=0.0, horizon=1.0)


class TestClosedFormTwoLinkSolution:
    def test_fixed_point_is_2T_periodic(self):
        period = 0.7
        start = oscillation_fixed_point(period)
        after_two = two_link_best_response_flow(start, period, 2 * period)
        assert after_two == pytest.approx(start, abs=1e-12)

    def test_equilibrium_is_stationary(self):
        assert two_link_best_response_flow(0.5, 0.3, 10.0) == pytest.approx(0.5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            two_link_best_response_flow(0.6, 0.0, 1.0)
        with pytest.raises(ValueError):
            two_link_best_response_flow(1.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            two_link_best_response_flow(0.5, 0.1, -1.0)


class TestOscillationBounds:
    def test_amplitude_formula(self):
        beta, period = 4.0, 0.5
        decayed = math.exp(-period)
        expected = beta * (1 - decayed) / (2 * decayed + 2)
        assert oscillation_amplitude(beta, period) == pytest.approx(expected)

    def test_amplitude_scales_linearly_with_beta(self):
        assert oscillation_amplitude(8.0, 0.3) == pytest.approx(2 * oscillation_amplitude(4.0, 0.3))

    def test_amplitude_increases_with_period(self):
        assert oscillation_amplitude(1.0, 0.8) > oscillation_amplitude(1.0, 0.2)

    def test_max_period_inverts_amplitude(self):
        beta, eps = 4.0, 0.1
        period = max_update_period_for_latency(beta, eps)
        assert oscillation_amplitude(beta, period) == pytest.approx(eps, rel=1e-9)

    def test_max_period_is_order_eps_over_beta(self):
        # For small eps/beta, ln((1+x)/(1-x)) ~ 2x, so T ~ 4 eps / beta.
        beta, eps = 10.0, 0.01
        assert max_update_period_for_latency(beta, eps) == pytest.approx(4 * eps / beta, rel=1e-2)

    def test_degenerate_cases(self):
        assert max_update_period_for_latency(0.0, 0.1) == float("inf")
        assert max_update_period_for_latency(1.0, 0.6) == float("inf")
        assert max_update_period_for_latency(1.0, 0.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            oscillation_amplitude(-1.0, 0.1)
        with pytest.raises(ValueError):
            oscillation_amplitude(1.0, 0.0)
        with pytest.raises(ValueError):
            oscillation_fixed_point(0.0)


class TestConvergenceTimeBounds:
    def test_uniform_bound_scales_with_paths(self):
        small = identical_linear_links(2)
        large = identical_linear_links(8)
        args = dict(update_period=0.1, delta=0.1, epsilon=0.1)
        assert uniform_convergence_bound(large, **args) > uniform_convergence_bound(small, **args)

    def test_proportional_bound_independent_of_paths(self):
        small = identical_linear_links(2)
        large = identical_linear_links(8)
        args = dict(update_period=0.1, delta=0.1, epsilon=0.1)
        assert proportional_convergence_bound(large, **args) == pytest.approx(
            proportional_convergence_bound(small, **args)
        )

    def test_bounds_scale_inverse_delta_squared(self):
        network = identical_linear_links(4)
        loose = proportional_convergence_bound(network, 0.1, delta=0.2, epsilon=0.1)
        tight = proportional_convergence_bound(network, 0.1, delta=0.1, epsilon=0.1)
        assert tight == pytest.approx(4 * loose)

    def test_theorem_update_period_capped_at_one(self):
        network = two_link_network(beta=1e-3)
        assert theorem_update_period(network, alpha=1e-3) == 1.0

    def test_invalid_arguments(self):
        network = identical_linear_links(2)
        with pytest.raises(ValueError):
            uniform_convergence_bound(network, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            proportional_convergence_bound(network, 0.1, -0.1, 0.1)
        with pytest.raises(ValueError):
            proportional_convergence_bound(network, 0.1, 0.1, 2.0)
