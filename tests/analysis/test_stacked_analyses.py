"""Every trajectory analysis is one stacked evaluation of the scalar measures.

The analyses evaluate a trajectory's ``(K, P)`` phase-start and phase-end
stacks at once.  Here each is checked against the loop it replaced: one
scalar call per phase or per sample on the trajectory's rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    SweepCase,
    count_bad_phases,
    phase_potential_stats,
    phase_start_latency_trace,
    potential_decrease_rate,
    potential_is_monotone,
    time_to_approximate_equilibrium,
    time_to_potential_gap,
)
from repro.core import replicator_policy, scaled_policy, simulate, simulate_best_response
from repro.experiments import run_cases
from repro.instances import get_instance, oscillation_initial_flow, two_link_network
from repro.largescale import ActivePathSet
from repro.wardrop import (
    FlowVector,
    decompose_phase,
    potential,
    unsatisfied_volume,
    weakly_unsatisfied_volume,
)

# The paper sweep's instances with their smoothness constants alpha.
SWEEP_INSTANCES = {
    "two-links-steep": 4.0,
    "braess": 2.0,
    "pigou-quadratic": 2.0,
    "parallel-8-affine": 1.0,
}
SLACK = 1e-7


def sweep_cases(name, alpha):
    """Stale T/T* in {0.25, 1, 8}, fresh, and stale and fresh agents."""
    network = get_instance(name)
    policy = scaled_policy(alpha)
    safe = policy.safe_update_period(network)
    rng = np.random.default_rng(11)
    cases = [
        SweepCase(
            parameters={"model": "fluid-stale", "T/T*": ratio},
            network=network,
            policy=policy,
            update_period=ratio * safe,
            horizon=40 * ratio * safe,
            initial_flow=FlowVector.random(network, rng),
            steps_per_phase=10,
        )
        for ratio in (0.25, 1.0, 8.0)
    ]
    cases.append(
        SweepCase(
            parameters={"model": "fluid-fresh", "T/T*": 1.0},
            network=network,
            policy=policy,
            update_period=safe,
            horizon=40 * safe,
            initial_flow=FlowVector.random(network, rng),
            stale=False,
            steps_per_phase=10,
        )
    )
    for stale in (True, False):
        cases.append(
            SweepCase(
                parameters={"model": "agents-stale" if stale else "agents-fresh", "T/T*": 1.0},
                network=network,
                policy=policy,
                update_period=safe,
                horizon=8 * safe,
                stale=stale,
                method="agents",
                num_agents=10_000 if stale else 1_000,
                seed=5,
            )
        )
    return cases


def rows_of(trajectory, flows):
    return [FlowVector(trajectory.network, row, validate=False) for row in flows]


def decomposition_loop(trajectory):
    """The Lemma 3/4 statistics from one ``decompose_phase`` call per phase."""
    return [
        decompose_phase(start, end)
        for start, end in zip(
            rows_of(trajectory, trajectory.phase_starts), rows_of(trajectory, trajectory.phase_ends)
        )
    ]


@pytest.mark.parametrize("name", SWEEP_INSTANCES)
def test_phase_potential_stats_match_the_decompose_phase_loop(name):
    def compare(trajectory):
        stats = phase_potential_stats(trajectory, slack=SLACK)
        loop = decomposition_loop(trajectory)
        assert stats.phases == len(loop) == len(trajectory.phases)
        assert stats.lemma4_violations == sum(not d.satisfies_lemma4(slack=SLACK) for d in loop)
        assert stats.max_potential_increase == pytest.approx(
            max([d.delta_phi for d in loop] + [0.0]), rel=0, abs=1e-12
        )
        assert stats.max_identity_residual == pytest.approx(
            max(abs(d.identity_residual) for d in loop), rel=0, abs=1e-12
        )
        return {"violations": stats.lemma4_violations}

    rows = run_cases(sweep_cases(name, SWEEP_INSTANCES[name]), compare).rows
    assert len(rows) == 6


def test_phase_potential_stats_match_the_loop_on_an_oscillating_run():
    """Best response at T = 0.5 on the two-link instance breaks Lemma 4 in
    every phase, so the counts are compared where they are not zero."""
    network = two_link_network(beta=4.0)
    trajectory = simulate_best_response(
        network, update_period=0.5, horizon=30.0,
        initial_flow=oscillation_initial_flow(network, 0.5),
    )
    stats = phase_potential_stats(trajectory, slack=SLACK)
    loop = decomposition_loop(trajectory)
    assert stats.lemma4_violations == sum(not d.satisfies_lemma4(slack=SLACK) for d in loop) > 0
    assert stats.max_potential_increase == pytest.approx(
        max(d.delta_phi for d in loop), rel=0, abs=1e-12
    )


def sioux_mini_ragged():
    """sioux-falls-mini after one augmentation: 40 commodities of one or two paths."""
    mini = get_instance("sioux-falls-mini")
    active = ActivePathSet.from_network(mini)
    loaded = active.oracle.all_or_nothing(active.oracle.free_flow_costs(mini)).edge_flows
    active.augment(active.oracle.latency_costs(mini, loaded))
    return active.network


def per_commodity_volumes(flow, delta):
    """Definitions 3 and 4 written out one commodity at a time."""
    network, latencies, values = flow.network, flow.path_latencies(), flow.values()
    strong = weak = 0.0
    for i, commodity in enumerate(network.commodities):
        paths = list(network.paths.commodity_indices(i))
        minimum = min(latencies[p] for p in paths)
        average = sum(values[p] * latencies[p] for p in paths) / commodity.demand
        strong += sum(values[p] for p in paths if latencies[p] > minimum + delta)
        weak += sum(values[p] for p in paths if latencies[p] > average + delta)
    return strong, weak


@pytest.mark.parametrize("instance", ["ragged", "sioux-mini-ragged"])
def test_count_bad_phases_matches_the_per_phase_loops(instance, ragged):
    network = ragged if instance == "ragged" else sioux_mini_ragged()
    assert not network.paths.blocks.uniform  # the commodity blocks are padded
    start = FlowVector.random(network, np.random.default_rng(4))
    trajectory = simulate(
        network, scaled_policy(1.0), update_period=0.1, horizon=4.0, initial_flow=start
    )
    starts = rows_of(trajectory, trajectory.phase_starts)
    informative = 0
    for delta in (0.01, 0.1, 0.5):
        strong = [unsatisfied_volume(flow, delta) for flow in starts]
        weak = [weakly_unsatisfied_volume(flow, delta) for flow in starts]
        written_out = [per_commodity_volumes(flow, delta) for flow in starts]
        np.testing.assert_allclose(strong, [s for s, _ in written_out], rtol=0, atol=1e-12)
        np.testing.assert_allclose(weak, [w for _, w in written_out], rtol=0, atol=1e-12)
        quartiles = np.quantile(strong + weak, [0.25, 0.5, 0.75])
        for epsilon in [0.01] + [q for q in quartiles.tolist() if q > 0]:
            summary = count_bad_phases(trajectory, delta, epsilon)
            bad = [k for k, volume in enumerate(strong) if volume > epsilon]
            assert summary.total_phases == len(starts)
            assert summary.bad_phases == len(bad)
            assert summary.weak_bad_phases == sum(volume > epsilon for volume in weak)
            assert summary.last_bad_phase == (bad[-1] if bad else -1)
            informative += 0 < summary.bad_phases < summary.total_phases
    assert informative  # some (delta, eps) pair splits the phases


def test_stacked_analyses_match_their_scalar_loops(ragged):
    policy = replicator_policy(ragged, max_latency=10.0)
    start = FlowVector.random(ragged, np.random.default_rng(6))
    trajectory = simulate(ragged, policy, update_period=0.2, horizon=6.0, initial_flow=start)
    samples = [potential(flow) for flow in rows_of(trajectory, trajectory.flows)]
    ends = [potential(flow) for flow in rows_of(trajectory, trajectory.phase_ends)]
    starts = rows_of(trajectory, trajectory.phase_starts)

    optimum = min(samples)
    gap = (samples[0] - optimum) / 2
    first = next(k for k, value in enumerate(samples) if value - optimum <= gap)
    assert time_to_potential_gap(trajectory, optimum, gap) == trajectory.times[first]
    assert time_to_potential_gap(trajectory, optimum - 1.0, 0.0) is None

    for weak, measure in ((False, unsatisfied_volume), (True, weakly_unsatisfied_volume)):
        epsilon = np.median([measure(flow, 0.05) for flow in starts])
        first = next(k for k, flow in enumerate(starts) if measure(flow, 0.05) <= epsilon)
        assert time_to_approximate_equilibrium(
            trajectory, 0.05, epsilon, weak=weak
        ) == trajectory.phases[first, 0]

    assert potential_is_monotone(trajectory) == all(
        b <= a + 1e-9 for a, b in zip(ends, ends[1:])
    )
    assert potential_decrease_rate(trajectory) == -(ends[-1] - ends[0]) / (len(ends) - 1)
    assert phase_start_latency_trace(trajectory).tolist() == [
        flow.max_used_latency() for flow in starts
    ]
