"""Scenario equivalence: manual-restart bit-identity and B-invariance.

Two contracts anchor the scenario layer:

1. A piecewise-constant schedule applied through the scenario layer is
   *bit-identical* to manually restarting a stationary ``simulate`` run
   with the rescaled environment at every breakpoint (breakpoints aligned to
   phase boundaries; the restart carries the end flow over).
2. A batched run whose rows carry (different) scenarios reproduces each
   row's one-row ``simulate(..., scenario=...)`` trajectory bit for bit, in
   both information models.
"""

import numpy as np
import pytest

from repro.batch.engine import simulate_batch
from repro.core import scaled_policy, simulate, simulate_agents, uniform_policy
from repro.instances import braess_network, pigou_network, two_link_network
from repro.scenarios import (
    LinkIncident,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    Scenario,
)
from repro.wardrop.flow import FlowVector

T = 0.25  # breakpoints below are exact multiples, so phase grids align


class TestManualRestartEquivalence:
    def test_piecewise_constant_demand_matches_manual_restarts(self):
        """Scenario-layer demand steps == stationary runs glued by hand."""
        network = braess_network()
        policy = scaled_policy(0.2)  # network-independent, reusable across segments
        scenario = Scenario(
            demand=PiecewiseConstantSchedule([1.0, 2.0], [1.0, 1.4, 0.8])
        )
        via_scenario = simulate(
            network, policy, update_period=T, horizon=3.0,
            scenario=scenario,
        )

        # Manual restarts: one stationary run per constant interval, on the
        # interval's effective network, starting from the previous end flow.
        segments = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        manual_samples = []
        carry = None
        for start, end in segments:
            effective = scenario.network_at(network, start)
            initial = None if carry is None else FlowVector(effective, carry, validate=False)
            trajectory = simulate(
                effective, policy, update_period=T, horizon=end - start,
                initial_flow=initial,
            )
            flows = trajectory.flows
            if carry is None:
                manual_samples.append(flows)
            else:
                manual_samples.append(flows[1:])  # drop the duplicated start
            carry = flows[-1]
        manual = np.vstack(manual_samples)

        np.testing.assert_array_equal(via_scenario.flows, manual)

    def test_stationary_scenario_is_a_no_op(self):
        network = pigou_network(degree=2)
        policy = uniform_policy(network)
        scenario = Scenario(demand=PiecewiseConstantSchedule([], [1.0]))
        plain = simulate(network, policy, update_period=0.1, horizon=2.0)
        wrapped = simulate(
            network, policy, update_period=0.1, horizon=2.0, scenario=scenario
        )
        np.testing.assert_array_equal(plain.flows, wrapped.flows)


SCENARIO_BUILDERS = {
    "demand-step": lambda: Scenario(
        demand=PiecewiseConstantSchedule([1.0], [1.0, 1.3])
    ),
    "demand-ramp": lambda: Scenario(
        demand=PiecewiseLinearSchedule([0.0, 1.5, 3.0], [1.0, 1.5, 1.0])
    ),
    "closure": lambda: Scenario(
        incidents=[
            LinkIncident(("a", "b", 0), 0.75, 2.0, capacity_factor=0.0, closure_penalty=5.0)
        ]
    ),
    "late-drop": lambda: Scenario(
        incidents=[LinkIncident(("s", "a", 0), 1.5, 2.5, capacity_factor=0.5)]
    ),
}


class TestBatchInvariance:
    @pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
    def test_mixed_scenario_rows_bit_identical(self, stale):
        network = braess_network()
        policy = uniform_policy(network)
        scenarios = [None] + [build() for build in SCENARIO_BUILDERS.values()]
        batch = len(scenarios)
        periods = np.array([0.25, 0.25, 0.2, 0.25, 0.25])
        result = simulate_batch(
            network, policy,
            update_periods=periods, horizons=3.0, scenarios=scenarios,
            stale=stale, steps_per_phase=10,
        )
        for row, scenario in enumerate(scenarios):
            trajectory = simulate(
                network, policy, update_period=float(periods[row]), horizon=3.0,
                scenario=scenario, stale=stale,
            )
            alone = trajectory.flows
            batched = result.flow_matrix(row)
            assert alone.shape == batched.shape
            np.testing.assert_array_equal(alone, batched, err_msg=f"row {row}")

    def test_shared_scenario_broadcasts(self):
        network = two_link_network(beta=2.0)
        policy = uniform_policy(network)
        scenario = Scenario(demand=PiecewiseConstantSchedule([0.5], [1.0, 1.5]))
        result = simulate_batch(
            network, policy, update_periods=[0.1, 0.1], horizons=1.0,
            scenarios=scenario, steps_per_phase=10,
        )
        np.testing.assert_array_equal(result.flow_matrix(0), result.flow_matrix(1))
        trajectory = simulate(
            network, policy, update_period=0.1, horizon=1.0,
            scenario=scenario,
        )
        np.testing.assert_array_equal(trajectory.flows, result.flow_matrix(0))

    def test_scenario_count_mismatch_rejected(self):
        network = two_link_network(beta=2.0)
        policy = uniform_policy(network)
        with pytest.raises(ValueError):
            simulate_batch(
                network, policy, update_periods=[0.1, 0.1], horizons=1.0,
                scenarios=[None, None, None],
            )


class TestAgentEngine:
    def test_stationary_scenario_reproduces_plain_run(self):
        network = braess_network()
        policy = uniform_policy(network)
        scenario = Scenario(demand=PiecewiseConstantSchedule([], [1.0]))
        plain = simulate_agents(
            network, policy, num_agents=200, update_period=0.25, horizon=2.0, seed=11,
        )
        wrapped = simulate_agents(
            network, policy, num_agents=200, update_period=0.25, horizon=2.0, seed=11,
            scenario=scenario,
        )
        np.testing.assert_array_equal(plain.flows, wrapped.flows)

    def test_demand_step_changes_behaviour_not_randomness(self):
        """The randomness schedule is scenario-independent: runs with and
        without a demand step share every activation, so they diverge only
        after the step's breakpoint."""
        network = pigou_network(degree=1)
        policy = uniform_policy(network)
        scenario = Scenario(demand=PiecewiseConstantSchedule([1.0], [1.0, 1.8]))
        plain = simulate_agents(
            network, policy, num_agents=500, update_period=0.25, horizon=2.0, seed=3,
        )
        stepped = simulate_agents(
            network, policy, num_agents=500, update_period=0.25, horizon=2.0, seed=3,
            scenario=scenario,
        )
        plain_flows = plain.flows
        stepped_flows = stepped.flows
        # identical before the step (samples 0..4 cover t <= 1.0; the phase
        # starting at t=1.0 is the first to see the new environment)
        np.testing.assert_array_equal(plain_flows[:5], stepped_flows[:5])
        assert not np.array_equal(plain_flows[5:], stepped_flows[5:])
