"""Unit tests for the fluid-limit rerouting simulator."""

from __future__ import annotations

import numpy as np
import pytest

from reference_dynamics import reference_run
from repro.batch import simulate_batch
from repro.core import (
    MigrationRule,
    ReroutingPolicy,
    UniformSampling,
    better_response_policy,
    replicator_policy,
    simulate,
    uniform_policy,
)
from repro.instances import braess_network, lopsided_flow, pigou_network, two_link_network
from repro.telemetry.runtime import telemetry_session
from repro.wardrop import FlowVector, equilibrium_violation, potential


class TestArguments:
    def test_rejects_bad_parameters(self, two_links):
        policy = uniform_policy(two_links)
        with pytest.raises(ValueError, match="update_period"):
            simulate(two_links, policy, update_period=0.0, horizon=1.0)
        with pytest.raises(ValueError, match="horizon"):
            simulate(two_links, policy, update_period=0.1, horizon=0.0)

    def test_rejects_array_settings(self, two_links):
        policy = uniform_policy(two_links)
        with pytest.raises(ValueError, match="update_period must be a scalar"):
            simulate(two_links, policy, update_period=[0.1, 0.2], horizon=1.0)

    def test_runs_as_one_row_of_the_fluid_engine(self, two_links):
        with telemetry_session() as tele:
            simulate(two_links, uniform_policy(two_links), update_period=0.1, horizon=0.3)
        runs = [r for r in tele.tracer.records() if r["name"] == "engine_run"]
        assert [(r["attrs"]["engine"], r["attrs"]["rows"]) for r in runs] == [("fluid-batch", 1)]


class TestBasicRuns:
    def test_flow_stays_feasible_throughout(self, braess):
        policy = uniform_policy(braess)
        trajectory = simulate(
            braess, policy, update_period=0.05, horizon=2.0
        )
        for flow in trajectory.flows:
            FlowVector(braess, flow, validate=False).check_feasible(tolerance=1e-6)

    def test_phase_records_chain_correctly(self, two_links):
        policy = uniform_policy(two_links)
        trajectory = simulate(two_links, policy, update_period=0.1, horizon=1.0)
        assert len(trajectory.phases) == 10
        assert trajectory.phases[1:, 0] == pytest.approx(trajectory.phases[:-1, 1])
        assert np.allclose(trajectory.phase_starts[1:], trajectory.phase_ends[:-1])

    def test_equilibrium_is_stationary(self, two_links):
        policy = replicator_policy(two_links)
        equilibrium = FlowVector(two_links, [0.5, 0.5])
        trajectory = simulate(
            two_links, policy, update_period=0.1, horizon=2.0, initial_flow=equilibrium
        )
        assert np.allclose(trajectory.final_flow.values(), [0.5, 0.5], atol=1e-9)

    def test_stop_when_condition(self, two_links):
        policy = replicator_policy(two_links)
        trajectory = simulate(
            two_links,
            policy,
            update_period=0.1,
            horizon=100.0,
            initial_flow=lopsided_flow(two_links, 0.9),
            stop_when=lambda times, flows, rows: np.array(
                [equilibrium_violation(FlowVector(two_links, flows[0])) < 1e-3]
            ),
        )
        assert trajectory.times[-1] < 100.0

    def test_wrong_network_initial_flow_rejected(self, two_links, braess):
        policy = uniform_policy(two_links)
        with pytest.raises(ValueError, match="different network"):
            simulate(
                two_links, policy, update_period=0.1, horizon=1.0,
                initial_flow=FlowVector.uniform(braess),
            )


class TestConvergenceBehaviour:
    def test_uniform_policy_converges_fresh(self, two_links_steep):
        policy = uniform_policy(two_links_steep)
        trajectory = simulate(
            two_links_steep,
            policy,
            update_period=0.1,
            horizon=60.0,
            initial_flow=lopsided_flow(two_links_steep, 0.95),
            stale=False,
        )
        assert equilibrium_violation(trajectory.final_flow) < 1e-2

    def test_replicator_converges_under_safe_staleness(self, two_links_steep):
        policy = replicator_policy(two_links_steep)
        safe_period = policy.safe_update_period(two_links_steep)
        trajectory = simulate(
            two_links_steep,
            policy,
            update_period=safe_period,
            horizon=80.0,
            initial_flow=lopsided_flow(two_links_steep, 0.95),
        )
        assert equilibrium_violation(trajectory.final_flow) < 1e-2

    def test_potential_monotone_under_safe_staleness(self, braess):
        policy = uniform_policy(braess)
        safe_period = policy.safe_update_period(braess)
        trajectory = simulate(
            braess,
            policy,
            update_period=safe_period,
            horizon=10.0,
            initial_flow=FlowVector.single_path(braess, {0: 0}),
        )
        values = [potential(FlowVector(braess, end, validate=False)) for end in trajectory.phase_ends]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestStalePhases:
    """Stale phases freeze sigma and mu once per phase and end at
    ``f expm(d Lambda)``; the reference rebuilds the generator from the
    posted board and exponentiates it with scipy."""

    def test_trajectories_match_the_reference(self):
        cases = [
            (pigou_network(degree=2), "proportional"),
            (braess_network(), "uniform"),
            (two_link_network(beta=4.0), "uniform"),
        ]
        for network, sampling in cases:
            make = replicator_policy if sampling == "proportional" else uniform_policy
            policy = make(network)
            rng = np.random.default_rng(13)
            start = FlowVector.random(network, rng)
            trajectory = simulate(
                network, policy, update_period=0.15, horizon=1.0, initial_flow=start
            )
            _, expected = reference_run(
                network, sampling, policy.migration.max_latency,
                getattr(policy.sampling, "exploration", 0.0),
                0.15, 1.0, 7, start.values(),
            )
            np.testing.assert_allclose(trajectory.flow_matrix(), expected, rtol=0, atol=1e-12)


class TestNonFiniteState:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_phase_that_produces_non_finite_flows_raises(self, two_links):
        class Exploding(MigrationRule):
            def probability(self, latency_from, latency_to):
                return np.where(np.greater(latency_from, latency_to), np.inf, 0.0)

        policy = ReroutingPolicy(UniformSampling(), Exploding())
        with telemetry_session() as tele:
            with pytest.raises(ValueError, match="row 0 has non-finite flows at the end of phase 0"):
                simulate(
                    two_links, policy, update_period=0.1, horizon=1.0,
                    initial_flow=lopsided_flow(two_links, 0.9),
                )
            # The failed run's spans are closed, so later spans start at the root.
            with tele.span("after"):
                pass
        records = {r["name"]: r for r in tele.tracer.records()}
        assert {"engine_run", "phase", "integrate"} <= set(records)
        assert records["after"]["parent"] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_fresh_phase_whose_field_is_not_finite_raises(self, two_links):
        # Every error-controlled step is rejected: the step shrinks below any
        # step a Lipschitz field needs, and the run raises instead of looping.
        # The rule claims a smoothness it lacks, so only the step control sees it.
        class Exploding(MigrationRule):
            smoothness = 1.0

            def probability(self, latency_from, latency_to):
                return np.where(np.greater(latency_from, latency_to), np.inf, 0.0)

        policy = ReroutingPolicy(UniformSampling(), Exploding())
        with pytest.raises(ValueError, match="row 1 needs steps below 1e-09 in phase 0: .*finite"):
            simulate_batch(
                two_links, [uniform_policy(two_links), policy], [0.1, 0.1], 1.0,
                initial_flows=[lopsided_flow(two_links, 0.9)] * 2, stale=False,
            )

    def test_a_fresh_run_of_a_discontinuous_rule_is_rejected_before_it_starts(self, two_links):
        # Better response switches where the latencies cross, so Eq. (1) is a
        # differential inclusion: at the equilibrium the steps would chatter
        # without end.  The engine refuses it when it is built; stale runs
        # of the same policy are exact.
        policy = better_response_policy()
        with pytest.raises(ValueError, match="not alpha-smooth"), telemetry_session() as tele:
            simulate(two_links, policy, update_period=0.1, horizon=3.0, stale=False)
        assert "phase" not in {record["name"] for record in tele.tracer.records()}
        simulate(two_links, policy, update_period=0.1, horizon=3.0)
