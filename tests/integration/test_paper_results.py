"""Integration tests reproducing the paper's main claims end to end.

Each test corresponds to a theorem or worked example of the paper and runs
the full stack (instance -> policy -> bulletin board -> simulator -> analysis)
rather than a single module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    analyse_oscillation,
    count_bad_phases,
    phase_potential_stats,
    phase_start_latency_trace,
)
from repro.core import (
    better_response_policy,
    oscillation_amplitude,
    replicator_policy,
    scaled_policy,
    simulate,
    simulate_best_response,
    uniform_policy,
)
from repro.instances import (
    braess_network,
    heterogeneous_affine_links,
    lopsided_flow,
    oscillation_initial_flow,
    pigou_network,
    two_link_network,
)
from repro.solvers import optimal_potential, solve_wardrop_equilibrium
from repro.wardrop import FlowVector, equilibrium_violation, potential


class TestSection32Oscillation:
    """The two-link best-response oscillation (Section 3.2)."""

    @pytest.mark.parametrize("beta", [1.0, 4.0])
    @pytest.mark.parametrize("period", [0.25, 0.5, 1.0])
    def test_amplitude_matches_closed_form(self, beta, period):
        network = two_link_network(beta=beta)
        trajectory = simulate_best_response(
            network, update_period=period, horizon=20 * period,
            initial_flow=oscillation_initial_flow(network, period),
        )
        measured = phase_start_latency_trace(trajectory)
        assert np.allclose(measured, oscillation_amplitude(beta, period), atol=1e-9)

    def test_oscillation_persists_for_small_periods(self):
        # The paper: no positive T avoids oscillation from the bad start.
        beta = 4.0
        network = two_link_network(beta=beta)
        for period in [0.5, 0.1, 0.02]:
            trajectory = simulate_best_response(
                network, update_period=period, horizon=60 * period,
                initial_flow=oscillation_initial_flow(network, period),
            )
            report = analyse_oscillation(trajectory)
            assert report.is_oscillating
            assert report.mean_phase_start_latency > 0.0

    def test_amplitude_shrinks_linearly_with_period(self):
        beta = 4.0
        network = two_link_network(beta=beta)
        amplitudes = []
        for period in [0.4, 0.2, 0.1]:
            trajectory = simulate_best_response(
                network, update_period=period, horizon=30 * period,
                initial_flow=oscillation_initial_flow(network, period),
            )
            amplitudes.append(float(phase_start_latency_trace(trajectory).mean()))
        # Halving T roughly halves the sustained latency (X ~ beta*T/4).
        assert amplitudes[1] == pytest.approx(amplitudes[0] / 2, rel=0.15)
        assert amplitudes[2] == pytest.approx(amplitudes[1] / 2, rel=0.15)


class TestTheorem2FreshInformation:
    """Convergence of every smooth policy under up-to-date information."""

    @pytest.mark.parametrize("make_policy", [uniform_policy, replicator_policy])
    def test_converges_on_pigou(self, make_policy):
        network = pigou_network(degree=2)
        policy = make_policy(network)
        trajectory = simulate(
            network, policy, update_period=0.05, horizon=80.0,
            initial_flow=FlowVector(network, [0.9, 0.1]), stale=False,
        )
        # Convergence is asymptotic (latency differences vanish near the
        # equilibrium), so allow a small residual violation.
        assert equilibrium_violation(trajectory.final_flow) < 5e-2

    def test_potential_never_increases(self):
        network = braess_network()
        policy = uniform_policy(network)
        trajectory = simulate(
            network, policy, update_period=0.05, horizon=20.0,
            initial_flow=FlowVector.single_path(network, {0: 0}), stale=False,
        )
        trace = trajectory.potential_trace()
        assert np.all(np.diff(trace) <= 1e-9)


class TestLemma4Corollary5StaleConvergence:
    """Convergence under stale information with the safe update period."""

    @pytest.mark.parametrize("instance_builder", [
        lambda: two_link_network(beta=8.0),
        braess_network,
        lambda: heterogeneous_affine_links(6, seed=1),
    ])
    def test_smooth_policy_converges_and_lemma4_holds(self, instance_builder):
        network = instance_builder()
        policy = uniform_policy(network)
        period = policy.safe_update_period(network)
        trajectory = simulate(
            network, policy, update_period=period, horizon=min(60.0, 600 * period),
            initial_flow=FlowVector.single_path(network, {0: 0}),
        )
        stats = phase_potential_stats(trajectory)
        assert stats.lemma4_violations == 0
        assert stats.max_potential_increase <= 1e-10
        optimum = optimal_potential(network)
        assert potential(trajectory.final_flow) - optimum < 0.05

    def test_aggressive_policy_with_long_period_fails_to_settle(self):
        # Violate the smoothness condition by a factor ~100: a steep two-link
        # instance with an aggressive migration rate and a long update period
        # keeps oscillating instead of converging.
        network = two_link_network(beta=8.0)
        safe_alpha = 1.0 / (4.0 * 1 * 8.0 * 0.5)  # alpha safe for T=0.5
        aggressive = scaled_policy(alpha=100.0 * safe_alpha)
        trajectory = simulate(
            network, aggressive, update_period=0.5, horizon=40.0,
            initial_flow=lopsided_flow(network, 0.9),
        )
        report = analyse_oscillation(trajectory)
        careful = scaled_policy(alpha=safe_alpha)
        careful_trajectory = simulate(
            network, careful, update_period=0.5, horizon=40.0,
            initial_flow=lopsided_flow(network, 0.9),
        )
        careful_report = analyse_oscillation(careful_trajectory)
        assert report.amplitude > 10 * careful_report.amplitude

    def test_better_response_policy_oscillates_under_staleness(self):
        network = two_link_network(beta=8.0)
        policy = better_response_policy()
        trajectory = simulate(
            network, policy, update_period=0.5, horizon=40.0,
            initial_flow=lopsided_flow(network, 0.9),
        )
        assert analyse_oscillation(trajectory).is_oscillating


class TestTheorems6And7ConvergenceTime:
    """Qualitative shape of the convergence-time bounds."""

    def test_bad_phases_finite_and_bound_respected(self):
        network = heterogeneous_affine_links(4, seed=5)
        delta, epsilon = 0.1, 0.1
        for make_policy in [uniform_policy, replicator_policy]:
            policy = make_policy(network)
            period = min(policy.safe_update_period(network), 1.0)
            trajectory = simulate(
                network, policy, update_period=period, horizon=80.0,
                initial_flow=FlowVector.single_path(network, {0: 0}),
            )
            summary = count_bad_phases(trajectory, delta, epsilon)
            assert summary.bad_phases < summary.total_phases
            # Once converged it stays converged (no recurring bad phases).
            assert summary.last_bad_phase <= summary.bad_phases + 1

    def test_proportional_beats_uniform_with_many_paths(self):
        network = heterogeneous_affine_links(16, seed=7)
        delta, epsilon = 0.1, 0.1
        results = {}
        for name, make_policy in [("uniform", uniform_policy), ("replicator", replicator_policy)]:
            policy = make_policy(network)
            period = min(policy.safe_update_period(network), 1.0)
            trajectory = simulate(
                network, policy, update_period=period, horizon=120.0,
                initial_flow=FlowVector.single_path(network, {0: 0}),
            )
            results[name] = count_bad_phases(trajectory, delta, epsilon).weak_bad_phases
        # Theorem 7's bound has no |P| factor; with 16 paths the replicator
        # needs no more bad phases than uniform sampling.
        assert results["replicator"] <= results["uniform"]


class TestDynamicsAgainstGroundTruth:
    def test_final_flow_matches_the_path_solver(self):
        network = pigou_network(degree=1)
        policy = replicator_policy(network)
        period = policy.safe_update_period(network)
        trajectory = simulate(
            network, policy, update_period=period, horizon=200 * period,
            initial_flow=FlowVector(network, [0.7, 0.3]),
        )
        reference = solve_wardrop_equilibrium(network).flow
        # Both should put (essentially) all flow on the variable link.
        assert trajectory.final_flow.values()[1] == pytest.approx(
            reference.values()[1], abs=0.05
        )
