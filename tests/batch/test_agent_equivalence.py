"""B-invariance of the agent engine.

Every row of a ``B``-row run must reproduce the one-row run of the same
configuration and seed *bit for bit*: the final agent-to-path assignments,
every recorded sample (times, flows, phase indices), the phase times, start
and end flows, and the final flows.  The grid covers two instances, stale and fresh
information, heterogeneous populations/periods/horizons per row, network
families, per-row policies and per-row scenarios.  The one-row run itself is
checked against ``tests/reference_agents.py``
(``tests/core/test_reference_agents.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from repro.batch import BatchAgentConfig, BatchAgentSimulator, simulate_agent_batch, simulate_batch
from repro.batch.agents import _stale_generator
from repro.core.dynamics import transition_blocks
from repro.core import (
    best_response_policy,
    replicator_policy,
    scaled_policy,
    simulate_agents,
    uniform_policy,
)
from repro.core.agents import population_counts
from repro.core.best_response import simulate_best_response
from repro.core.simulator import simulate
from repro.core.policy import PolicyStack
from repro.instances import get_instance, lopsided_flow, pigou_network, two_link_network
from repro.largescale.batch_columns import simulate_with_column_generation_batch
from repro.largescale.columns import ActivePathSet
from repro.scenarios import LinkIncident, Scenario
from repro.wardrop import FlowVector, NetworkFamily

ROWS = [
    {"num_agents": 40, "update_period": 0.2, "horizon": 2.0, "seed": 3},
    {"num_agents": 75, "update_period": 0.25, "horizon": 1.7, "seed": 11},
    {"num_agents": 120, "update_period": 0.2, "horizon": 2.1, "seed": 42},
]


def one_row_run(network, policy, row, initial_flow, stale, scenario=None):
    result = simulate_agent_batch(
        network,
        policy,
        num_agents=row["num_agents"],
        update_periods=row["update_period"],
        horizons=row["horizon"],
        initial_flows=initial_flow,
        seeds=row["seed"],
        stale=stale,
        scenarios=scenario,
    )
    return result.trajectory(0), result.assignments[0]


def assert_rows_bit_identical(
    result, network_of_row, policy_of_row, rows, starts, stale, scenarios=None
):
    for index, row in enumerate(rows):
        network = network_of_row(index)
        trajectory, assignment = one_row_run(
            network,
            policy_of_row(index),
            row,
            starts[index],
            stale,
            None if scenarios is None else scenarios[index],
        )
        batched = result.trajectory(index)
        # Assignments: the exact agent-to-path map after the last phase.
        assert np.array_equal(assignment, result.assignments[index])
        # Trajectories: every sample time, flow vector and phase index.
        assert np.array_equal(trajectory.times, batched.times)
        assert np.array_equal(trajectory.flow_matrix(), batched.flow_matrix())
        assert np.array_equal(trajectory.sample_phases, batched.sample_phases)
        assert len(trajectory.phases) == len(batched.phases)
        assert np.array_equal(trajectory.phases, batched.phases)
        assert np.array_equal(trajectory.phase_starts, batched.phase_starts)
        assert np.array_equal(trajectory.phase_ends, batched.phase_ends)
        # Final flows, both as arrays and through the FlowVector accessor.
        assert np.array_equal(
            trajectory.final_flow.values(), result.final_flow(index).values()
        )
        assert np.array_equal(trajectory.final_flow.values(), result.final_flows()[index])
        assert batched.policy_name == trajectory.policy_name
        assert batched.update_period == trajectory.update_period


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
@pytest.mark.parametrize(
    "name,closure",
    [
        ("braess", False),
        ("braess", True),
        ("parallel-8-affine", False),
        ("parallel-8-affine", True),
        ("sioux-falls-mini", False),
        ("sioux-falls-mini", True),
    ],
)
def test_scenario_rows_match_their_one_row_runs(name, closure, stale):
    """A scenario row next to a stationary row: both equal their one-row runs."""
    network = get_instance(name)
    policy = replicator_policy(network, exploration=0.05)
    edge = network.edges[0]
    incident = (
        LinkIncident(edge, 0.4, 1.2, capacity_factor=0.0, closure_penalty=10.0)
        if closure
        else LinkIncident(edge, 0.4, 1.2, capacity_factor=0.3)
    )
    scenarios = [Scenario(incidents=[incident]), None]
    rows = ROWS[:2]
    start = FlowVector.random(network, np.random.default_rng(2))
    result = simulate_agent_batch(
        network,
        policy,
        num_agents=[row["num_agents"] for row in rows],
        update_periods=[row["update_period"] for row in rows],
        horizons=[row["horizon"] for row in rows],
        initial_flows=start,
        seeds=[row["seed"] for row in rows],
        stale=stale,
        scenarios=scenarios,
    )
    assert_rows_bit_identical(
        result, lambda i: network, lambda i: policy, rows, [start] * 2, stale, scenarios
    )
    # The wrapper is the one-row run too.
    trajectory = simulate_agents(
        network, policy, rows[0]["num_agents"], rows[0]["update_period"],
        rows[0]["horizon"], initial_flow=start, seed=rows[0]["seed"], stale=stale,
        scenario=scenarios[0],
    )
    assert np.array_equal(trajectory.flow_matrix(), result.trajectory(0).flow_matrix())


def test_stationary_scenario_reproduces_the_scenario_free_run():
    network = get_instance("braess")
    policy = uniform_policy(network)
    row = ROWS[0]
    plain, plain_assignment = one_row_run(network, policy, row, None, True)
    idle = Scenario(incidents=[LinkIncident(network.edges[0], 50.0, 60.0, capacity_factor=0.5)])
    modulated, assignment = one_row_run(network, policy, row, None, True, idle)
    assert np.array_equal(plain.flow_matrix(), modulated.flow_matrix())
    assert np.array_equal(plain_assignment, assignment)


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
@pytest.mark.parametrize(
    "make_network",
    [lambda: two_link_network(beta=4.0), lambda: pigou_network(degree=2)],
    ids=["two-links", "pigou-quadratic"],
)
def test_rows_bit_identical_to_one_row_runs(make_network, stale):
    network = make_network()
    policy = replicator_policy(network, exploration=1e-3)
    start = lopsided_flow(network, 0.85) if network.num_paths == 2 else None
    result = simulate_agent_batch(
        network,
        policy,
        num_agents=[row["num_agents"] for row in ROWS],
        update_periods=[row["update_period"] for row in ROWS],
        horizons=[row["horizon"] for row in ROWS],
        initial_flows=start,
        seeds=[row["seed"] for row in ROWS],
        stale=stale,
    )
    assert_rows_bit_identical(
        result, lambda i: network, lambda i: policy, ROWS, [start] * len(ROWS), stale
    )


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_family_rows_match_their_member_networks(stale):
    constants = [0.6, 0.85, 1.1]
    family = NetworkFamily([pigou_network(degree=1, constant=c) for c in constants])
    policy = uniform_policy(family.base, max_latency=family.max_latency())
    starts = [FlowVector(member, [0.3, 0.7]) for member in family.networks]
    result = simulate_agent_batch(
        family,
        policy,
        num_agents=[row["num_agents"] for row in ROWS],
        update_periods=[row["update_period"] for row in ROWS],
        horizons=[row["horizon"] for row in ROWS],
        initial_flows=starts,
        seeds=[row["seed"] for row in ROWS],
        stale=stale,
    )
    assert_rows_bit_identical(
        result, lambda i: family.member(i), lambda i: policy, ROWS, starts, stale
    )


def test_per_row_policies_stack_and_match_one_row_runs():
    network = two_link_network(beta=4.0)
    policies = [scaled_policy(0.3), scaled_policy(0.6), scaled_policy(0.9)]
    start = lopsided_flow(network, 0.8)
    config = BatchAgentConfig(
        num_agents=np.array([row["num_agents"] for row in ROWS]),
        update_periods=[row["update_period"] for row in ROWS],
        horizons=[row["horizon"] for row in ROWS],
        seeds=[row["seed"] for row in ROWS],
    )
    result = BatchAgentSimulator(network, policies, config).run(start)
    assert_rows_bit_identical(
        result, lambda i: network, lambda i: policies[i], ROWS, [start] * len(ROWS), True
    )


def test_batch_size_broadcasts_from_any_per_row_field(two_links):
    """Scalar n with a seed list is the natural constant-n replica sweep."""
    policy = uniform_policy(two_links)
    result = simulate_agent_batch(
        two_links, policy, num_agents=40, update_periods=0.25, horizons=1.0,
        seeds=range(3),
    )
    assert result.batch_size == 3
    assert list(result.num_agents) == [40, 40, 40]
    for row in range(3):
        trajectory, assignment = one_row_run(
            two_links,
            policy,
            {"num_agents": 40, "update_period": 0.25, "horizon": 1.0, "seed": row},
            None,
            True,
        )
        assert np.array_equal(assignment, result.assignments[row])
        assert np.array_equal(trajectory.flow_matrix(), result.trajectory(row).flow_matrix())
    with pytest.raises(ValueError):
        simulate_agent_batch(
            two_links, policy, num_agents=[10, 20, 30], update_periods=[0.1, 0.2],
            horizons=1.0,
        )


def test_uniform_default_start_and_shared_seed_broadcast(two_links):
    policy = uniform_policy(two_links)
    result = simulate_agent_batch(
        two_links, policy, num_agents=[30, 30], update_periods=0.25, horizons=1.5, seeds=7
    )
    # Identical configuration and seed: the rows are exact clones.
    assert np.array_equal(result.assignments[0], result.assignments[1])
    assert np.array_equal(result.flows[0], result.flows[1])
    trajectory, assignment = one_row_run(
        two_links,
        policy,
        {"num_agents": 30, "update_period": 0.25, "horizon": 1.5, "seed": 7},
        None,
        True,
    )
    assert np.array_equal(assignment, result.assignments[0])
    assert np.array_equal(trajectory.flow_matrix(), result.trajectory(0).flow_matrix())


HORIZON_EDGE = 48 * 0.2  # = 9.600000000000001 > 9.6


def rounding_edge_agents(network, policy):
    result = simulate_agent_batch(
        network, policy, num_agents=[60, 60], update_periods=0.2,
        horizons=[HORIZON_EDGE, 3.0], seeds=[13, 14],
    )
    trajectory, assignment = one_row_run(
        network,
        policy,
        {"num_agents": 60, "update_period": 0.2, "horizon": HORIZON_EDGE, "seed": 13},
        None,
        True,
    )
    assert np.array_equal(assignment, result.assignments[0])
    return result.trajectory(0), trajectory


def rounding_edge_fluid(network, policy):
    result = simulate_batch(network, policy, [0.2, 0.2], [HORIZON_EDGE, 3.0], steps_per_phase=4)
    return result.trajectory(0), simulate(network, policy, 0.2, HORIZON_EDGE)


def rounding_edge_cg(network, policy):
    result = simulate_with_column_generation_batch(
        ActivePathSet.from_network(network, closed=True), policy, 0.2,
        [HORIZON_EDGE, 3.0], steps_per_phase=4,
    )
    return result.trajectory(0), simulate(network, policy, 0.2, HORIZON_EDGE)


def rounding_edge_best_response(network, policy):
    result = simulate_batch(
        network, best_response_policy(), [0.2, 0.2], [HORIZON_EDGE, 3.0],
        steps_per_phase=10, record_every=1,
    )
    return result.trajectory(0), simulate_best_response(network, 0.2, HORIZON_EDGE)


@pytest.mark.parametrize(
    "run",
    [rounding_edge_agents, rounding_edge_fluid, rounding_edge_cg, rounding_edge_best_response],
    ids=["agents", "fluid", "cg", "best-response"],
)
def test_horizon_rounding_edge_keeps_rows_identical(two_links, run):
    """horizon = k * T computed in floating point can land just above k*T
    (e.g. 48 * 0.2); ceil then plans one empty trailing phase, which every
    engine's row must skip identically (code-review regression)."""
    batch_row, one_row = run(two_links, uniform_policy(two_links))
    assert len(one_row.phases) == len(batch_row.phases) == 48
    assert one_row.phases[-1, 1] == HORIZON_EDGE
    assert np.array_equal(one_row.times, batch_row.times)
    assert np.array_equal(one_row.flow_matrix(), batch_row.flow_matrix())


def test_config_validation():
    with pytest.raises(ValueError):
        BatchAgentConfig(num_agents=np.array([0, 10]))
    with pytest.raises(ValueError):
        BatchAgentConfig(num_agents=np.array([10]), update_periods=0.0)
    with pytest.raises(ValueError):
        BatchAgentConfig(num_agents=np.array([10]), horizons=-1.0)


def test_family_size_must_match_batch(two_links):
    family = NetworkFamily.replicate(two_links, 2)
    config = BatchAgentConfig(num_agents=np.array([10, 10, 10]))
    with pytest.raises(ValueError):
        BatchAgentSimulator(family, uniform_policy(two_links), config)


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_migration_probabilities_above_one_act_like_one(stale):
    """Coins lie in [0, 1), so mu = 2 migrates exactly when mu = 1 does;
    the fresh kernel's window padding must not migrate on either."""
    from repro.core import BetterResponseMigration, ReroutingPolicy, UniformSampling

    class Doubled(BetterResponseMigration):
        def probability(self, latency_from, latency_to):
            return 2.0 * super().probability(latency_from, latency_to)

    network = get_instance("braess")
    # Agent 0 starts off the empty (cheapest) path 0, which padded window
    # entries would sample: a padding coin below 2 would move it.
    start = FlowVector(network, [0.0, 0.5, 0.5])
    runs = [
        simulate_agent_batch(
            network, ReroutingPolicy(UniformSampling(), rule), [50, 80], 0.25, 1.5,
            initial_flows=start, seeds=[1, 2], stale=stale,
        )
        for rule in (BetterResponseMigration(), Doubled())
    ]
    for row in range(2):
        assert np.array_equal(runs[0].assignments[row], runs[1].assignments[row])
        assert np.array_equal(runs[0].flow_matrix(row), runs[1].flow_matrix(row))


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_current_path_dependent_sampling_reads_the_agents_own_block_row(ragged, stale):
    """A sampling rule returning full ``(R, C, K, K)`` blocks: an agent in slot
    ``j`` always samples slot ``j + 1`` of its commodity (cyclically) and
    always migrates, so every activation advances its agent by one slot.
    Stale agents then follow the cyclic-shift generator; fresh ones are
    replayed activation by activation, each rank read on the current counts."""
    from repro.core import MigrationRule, ReroutingPolicy, SamplingRule

    class NextSlot(SamplingRule):
        def probabilities(self, blocks, posted_flows, posted_path_latencies):
            slots = np.arange(blocks.shape[1])
            following = (slots + 1) % blocks.sizes[:, None]
            return (slots == following[..., None]).astype(float)[None]

    class Always(MigrationRule):
        def probability(self, latency_from, latency_to):
            return np.ones(np.broadcast(latency_from, latency_to).shape)

    populations, seeds, period, horizon = [30, 55], [7, 8], 0.25, 1.0
    policy = ReroutingPolicy(NextSlot(), Always())
    blocks = ragged.paths.blocks
    if stale:
        # Every agent leaves its slot at rate 1 for the next one: the
        # generator is the cyclic shift minus the identity on each block.
        sigma, mu = PolicyStack.of([policy]).tables(
            blocks, np.zeros((1, ragged.num_paths)), np.zeros((1, ragged.num_paths))
        )
        generator = _stale_generator(sigma, mu, blocks)[0]
        for commodity, size in enumerate(blocks.sizes):
            shift = np.roll(np.eye(size), 1, axis=1) - np.eye(size)
            assert np.array_equal(generator[commodity, :size, :size], shift)
        # One phase's mean end counts over many seeds follow its exponential.
        replicas = 400
        result = simulate_agent_batch(
            ragged, policy, populations[1], period, period, seeds=np.arange(replicas)
        )
        start, _ = population_counts(ragged, populations[1])
        ends = result.final_counts
        for commodity, size in enumerate(blocks.sizes):
            paths = blocks.index[commodity, :size]
            step = expm(period * generator[commodity, :size, :size])
            mean = start[paths] @ step
            spread = np.sqrt(np.diag(np.diag(mean) - step.T @ (start[paths][:, None] * step)))
            error = np.abs(ends[:, paths].mean(axis=0) - mean)
            assert np.all(error <= 4 * spread / np.sqrt(replicas))
        return
    result = simulate_agent_batch(
        ragged, policy, populations, period, horizon, seeds=seeds, stale=stale,
    )
    starts = blocks.index[:, 0]
    for row, (population, seed) in enumerate(zip(populations, seeds)):
        counts, _ = population_counts(ragged, population)
        rng = np.random.default_rng(seed)
        for phase in range(4):
            count = rng.poisson(population * ((phase + 1) * period - phase * period))
            ranks = rng.integers(population, size=count)
            rng.random(count), rng.random(count)
            for rank in ranks:
                # Rank a is the a-th agent in path order of the current counts.
                path = int(np.searchsorted(np.cumsum(counts), rank, side="right"))
                commodity = blocks.commodity[path]
                following = (blocks.slot[path] + 1) % blocks.sizes[commodity]
                counts[path] -= 1
                counts[starts[commodity] + following] += 1
        assert np.array_equal(result.final_counts[row], counts)
        assert np.array_equal(result.assignments[row], np.repeat(np.arange(ragged.num_paths), counts))


def test_stale_rows_of_any_size_and_squaring_count_match_one_row_runs(ragged):
    """Rows whose phases need no squaring (T = 0.05) next to rows that need
    several (T = 8), with n from 10^2 to 10^9, each equal their one-row runs:
    flows, stop phases and end counts (so assignments) bit for bit."""
    policy = replicator_policy(ragged, exploration=0.05)
    start = FlowVector.random(ragged, np.random.default_rng(4))
    populations = [100, 10**9, 10**5, 10**9, 10**7, 100]
    periods = [0.05, 0.05, 8.0, 8.0, 1.0, 8.0]
    seeds = [1, 2, 3, 4, 5, 6]

    def stop_when(times, flows, rows):
        return times >= 2.0

    result = simulate_agent_batch(
        ragged, policy, populations, periods, 24.0, initial_flows=start, seeds=seeds,
        stop_when=stop_when,
    )
    assert list(result.stop_phases) == [39, 39, 0, 0, 1, 0]
    # Each row's phase exponential does not depend on its batch neighbours.
    sigma, mu = PolicyStack.of([policy]).tables(
        ragged.paths.blocks, start.values()[None], ragged.path_latencies(start.values())[None]
    )
    generator = _stale_generator(sigma, mu, ragged.paths.blocks)
    batched = transition_blocks(np.repeat(generator, len(periods), axis=0), np.array(periods))
    for row, period in enumerate(periods):
        assert np.array_equal(batched[row], transition_blocks(generator, np.array([period]))[0])
    for row, (population, period, seed) in enumerate(zip(populations, periods, seeds)):
        single = simulate_agent_batch(
            ragged, policy, population, period, 24.0, initial_flows=start, seeds=seed,
            stop_when=stop_when,
        )
        assert np.array_equal(single.flow_matrix(0), result.flow_matrix(row))
        assert np.array_equal(single.trajectory(0).times, result.trajectory(row).times)
        assert single.stop_phases[0] == result.stop_phases[row]
        assert np.array_equal(single.final_counts[0], result.final_counts[row])
        if population <= 10**5:
            assert np.array_equal(single.assignments[0], result.assignments[row])
