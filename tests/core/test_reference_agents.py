"""``simulate_agents`` against the event-by-event reference simulator.

The agent engine is one code path (``simulate_agents`` is its one-row case),
so its decisions are checked here against ``tests/reference_agents.py``,
which replays the seeding contract activation by activation from the
model's formulas and shares no engine, board, sampling or policy code.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_agents import reference_agents
from repro.batch import simulate_agent_batch
from repro.core import replicator_policy, simulate_agents, uniform_policy
from repro.instances import get_instance
from repro.scenarios import LinkIncident, Scenario
from repro.wardrop import FlowVector

INSTANCES = ["pigou-linear", "braess", "parallel-8-affine", "grid-3x3-2c"]
POLICIES = {
    "uniform": uniform_policy,
    "proportional": lambda network: replicator_policy(network, exploration=0.05),
}


def check(network, sampling, policy, start, trajectory, assignment, **run):
    exploration = getattr(policy.sampling, "exploration", 0.0)
    times, flows, expected = reference_agents(
        network, sampling, policy.migration.max_latency, exploration,
        start=None if start is None else start.values(), **run,
    )
    assert np.array_equal(assignment, expected)
    np.testing.assert_allclose(trajectory.times, times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=1e-12)
    # Agents moved: a run stuck at its start would match trivially.
    assert np.abs(flows[-1] - flows[0]).max() > 0


def one_row(network, policy, start, scenario=None, **run):
    result = simulate_agent_batch(
        network, policy, run["n"], run["period"], run["horizon"], initial_flows=start,
        seeds=run["seed"], stale=run["stale"], scenarios=scenario,
    )
    return result.trajectory(0), result.assignments[0]


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
@pytest.mark.parametrize("sampling", sorted(POLICIES))
@pytest.mark.parametrize("name", INSTANCES)
def test_one_row_run_matches_the_reference(name, sampling, stale):
    network = get_instance(name)
    policy = POLICIES[sampling](network)
    start = FlowVector.random(network, np.random.default_rng(3))
    run = dict(n=400, period=0.25, horizon=2.4, seed=7, stale=stale)
    trajectory, assignment = one_row(network, policy, start, **run)
    check(network, sampling, policy, start, trajectory, assignment, **run)


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_scenario_run_matches_the_reference(stale):
    network = get_instance("braess")
    policy = uniform_policy(network)
    scenario = Scenario(
        incidents=[LinkIncident(("s", "a", 0), 0.5, 1.5, capacity_factor=0.3)]
    )
    run = dict(n=300, period=0.25, horizon=2.0, seed=11, stale=stale)
    trajectory, assignment = one_row(network, policy, None, scenario=scenario, **run)
    check(network, "uniform", policy, None, trajectory, assignment, scenario=scenario, **run)


def test_simulate_agents_is_the_one_row_run():
    network = get_instance("braess")
    policy = replicator_policy(network, exploration=0.05)
    start = FlowVector.random(network, np.random.default_rng(1))
    for stale in (True, False):
        trajectory = simulate_agents(
            network, policy, num_agents=300, update_period=0.2, horizon=1.0,
            initial_flow=start, seed=4, stale=stale,
        )
        row, _ = one_row(network, policy, start, n=300, period=0.2, horizon=1.0, seed=4,
                         stale=stale)
        assert np.array_equal(trajectory.times, row.times)
        assert np.array_equal(trajectory.flow_matrix(), row.flow_matrix())
        assert trajectory.policy_name == row.policy_name
