"""``simulate_agents`` against references written from the model.

The agent engine is one code path (``simulate_agents`` is its one-row case).
Up-to-date-information runs are checked here against
``tests/reference_agents.py``, which replays the seeding contract activation
by activation from the model's formulas and shares no engine, board,
sampling or policy code.  Stale runs are exact in distribution only: within
a phase every agent follows the Markov chain whose generator the posted
board fixes, so a phase's end counts are compared over many seeds with
``scipy.linalg.expm`` of a generator built from ``tests/reference_dynamics``,
by a chi-square test at the fixed level :data:`ALPHA`.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2

from reference_agents import reference_agents
from reference_dynamics import transition_rates
from repro.batch import simulate_agent_batch
from repro.core import (
    LinearMigration,
    ReroutingPolicy,
    UniformSampling,
    replicator_policy,
    simulate_agents,
    uniform_policy,
)
from repro.core.agents import population_counts
from repro.instances import get_instance
from repro.scenarios import LinkIncident, Scenario
from repro.wardrop import FlowVector

INSTANCES = ["pigou-linear", "braess", "parallel-8-affine", "grid-3x3-2c"]
POLICIES = {
    "uniform": uniform_policy,
    "proportional": lambda network: replicator_policy(network, exploration=0.05),
}
# Significance level of the stale chi-square tests, and the replicas each pools.
ALPHA = 1e-3
REPLICAS = 200


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


def phase_p_value(network, policy, reference, start, phase, scenario=None, **run):
    """Return the chi-square p-value of phase ``phase``'s end counts over many seeds.

    ``reference`` is the ``(sampling, l_max, exploration)`` of
    ``reference_dynamics.tables`` that ``policy`` should realise.  Given its
    start counts ``m``, a replica's end counts are a sum of independent
    multinomials with mean ``m @ E`` and covariance
    ``diag(m @ E) - E^T diag(m) E``, where ``E = expm(d * Lambda)`` and
    ``Lambda`` is the generator of the board posted at the phase start.
    Summed over :data:`REPLICAS` seeds the deviation from the mean is close
    to Gaussian, so its quadratic form in the summed covariance is
    chi-square with the covariance's rank as degrees of freedom.
    """
    n, period = run["n"], run["period"]
    result = simulate_agent_batch(
        network, policy, n, period, (phase + 1) * period, initial_flows=start,
        seeds=np.arange(REPLICAS) + run["seed"], stale=True, scenarios=scenario,
    )
    _, weights = population_counts(network, n, None if start is None else start.values())
    env = network if scenario is None else scenario.network_at(network, phase * period)
    deviation = np.zeros(network.num_paths)
    covariance = np.zeros((network.num_paths,) * 2)
    moved = 0
    for row in range(REPLICAS):
        begin, end = result.flows[row, phase], result.flows[row, phase + 1]
        counts = np.rint(begin / weights)
        rates = transition_rates(env, *reference, begin)
        step = expm(period * (rates - np.diag(rates.sum(axis=1))))
        mean = counts @ step
        deviation += np.rint(end / weights) - mean
        covariance += np.diag(mean) - step.T @ (counts[:, None] * step)
        moved += bool(np.any(end != begin))
    # Agents moved: a run stuck at its start would match trivially.
    assert moved > REPLICAS // 2
    values, vectors = np.linalg.eigh(covariance)
    kept = values > 1e-9 * values.max()
    statistic = float(np.sum((vectors[:, kept].T @ deviation) ** 2 / values[kept]))
    return chi2.sf(statistic, int(kept.sum()))


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
@pytest.mark.parametrize("sampling", sorted(POLICIES))
@pytest.mark.parametrize("name", INSTANCES)
def test_one_row_run_matches_the_reference(name, sampling, stale):
    network = get_instance(name)
    policy = POLICIES[sampling](network)
    start = FlowVector.random(network, np.random.default_rng(3))
    run = dict(n=400, period=0.25, horizon=2.4, seed=7, stale=stale)
    if stale:
        exploration = getattr(policy.sampling, "exploration", 0.0)
        reference = (sampling, policy.migration.max_latency, exploration)
        assert phase_p_value(network, policy, reference, start, 0, **run) > ALPHA
        return
    trajectory, assignment = one_row(network, policy, start, **run)
    check(network, sampling, policy, start, trajectory, assignment, **run)


@pytest.mark.parametrize("name", INSTANCES)
def test_fresh_run_with_many_migrations_per_phase_matches_the_reference(name):
    """Long phases of a large population move dozens to hundreds of agents
    per phase (net moves of 18 to 151 here), so later ranks in a phase read
    cumulative counts that earlier migrations shifted: a rank lookup on the
    phase-start counts fails here on every instance."""
    network = get_instance(name)
    policy = POLICIES["uniform"](network)
    start = FlowVector.random(network, np.random.default_rng(3))
    run = dict(n=2000, period=1.0, horizon=2.0, seed=5, stale=False)
    trajectory, assignment = one_row(network, policy, start, **run)
    check(network, "uniform", policy, start, trajectory, assignment, **run)


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_scenario_run_matches_the_reference(stale):
    network = get_instance("braess")
    policy = uniform_policy(network)
    scenario = Scenario(
        incidents=[LinkIncident(("s", "a", 0), 0.5, 1.5, capacity_factor=0.3)]
    )
    run = dict(n=300, period=0.25, horizon=2.0, seed=11, stale=stale)
    if stale:
        # Phase 2 starts at 0.5, when the incident opens: its board prices it.
        reference = ("uniform", policy.migration.max_latency, 0.0)
        assert phase_p_value(network, policy, reference, None, 2, scenario, **run) > ALPHA
        return
    trajectory, assignment = one_row(network, policy, None, scenario=scenario, **run)
    check(network, "uniform", policy, None, trajectory, assignment, scenario=scenario, **run)


def test_migration_probabilities_above_one_move_like_one():
    """A stale agent's coin lies in [0, 1), so ``mu > 1`` moves it like
    ``mu = 1``: twice the linear ramp of ``l_max`` is the ramp of
    ``l_max / 2`` clipped at 1."""

    class Doubled(LinearMigration):
        def probability(self, latency_from, latency_to):
            return 2.0 * super().probability(latency_from, latency_to)

    network = get_instance("parallel-8-affine")
    l_max = network.max_latency() / 4  # a fifth of the pairs get mu > 1
    policy = ReroutingPolicy(UniformSampling(), Doubled(l_max))
    start = FlowVector.random(network, np.random.default_rng(5))
    run = dict(n=400, period=1.0, seed=3)
    assert phase_p_value(network, policy, ("uniform", l_max / 2, 0.0), start, 0, **run) > ALPHA


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
