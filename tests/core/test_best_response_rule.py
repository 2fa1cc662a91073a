"""Best response as a rule pair on the one engine.

Best-reply sampling with a migration rule that always moves makes the stale
generator ``1 sigma - I``, so the engine's exact phase is the closed form
``target + (f - target) exp(-d)`` of Section 3.2.  As an ordinary policy it
batches (rows bit-identical to one-row runs) and runs on the finite-population
engine with no code of its own.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.batch import simulate_agent_batch, simulate_batch
from repro.core import best_reply_target, best_response_policy, simulate_best_response
from repro.core.sampling import BestReplySampling
from repro.instances import get_instance, oscillation_initial_flow, two_link_network
from repro.wardrop import FlowVector


def test_best_reply_sampling_splits_ties_and_scales_to_the_target(layered):
    blocks = layered.paths.blocks
    latencies = layered.path_latencies(FlowVector.uniform(layered).values())
    latencies[blocks.index[0, :2]] = latencies.min() - 1.0  # two best replies in commodity 0
    sigma = BestReplySampling().probabilities(blocks, None, blocks.gather(latencies)[None])
    assert sigma.shape == (1,) + blocks.shape[:1] + (1,) + blocks.shape[1:]
    np.testing.assert_allclose(sigma.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    assert sigma[0, 0, 0].tolist()[:2] == [0.5, 0.5]
    assert sigma[0, 0, 0, 2:].sum() == 0.0
    target = best_reply_target(layered, latencies)
    np.testing.assert_allclose(
        blocks.gather(target), layered.commodity_demands[:, None] * sigma[0, :, 0], atol=0
    )


@pytest.mark.parametrize("name", ["two-links-steep", "braess", "parallel-8-affine"])
def test_exact_phase_is_the_closed_form(name):
    network = get_instance(name)
    start = FlowVector.random(network, np.random.default_rng(2))
    trajectory = simulate_best_response(network, 0.7, 14.0, initial_flow=start)
    assert len(trajectory.phases) == 20
    for (start_time, end_time), begin, end in zip(
        trajectory.phases, trajectory.phase_starts, trajectory.phase_ends
    ):
        target = best_reply_target(network, network.path_latencies(begin))
        decay = math.exp(-(end_time - start_time))
        expected = target + (begin - target) * decay
        np.testing.assert_allclose(end, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("period", [0.1, 0.3, 0.7])
def test_every_full_phase_records_samples_per_phase_points(two_links, period):
    """Phase ends (k + 1) T - k T that round an ulp above T add no sample."""
    phases, samples = 60, 10
    trajectory = simulate_best_response(two_links, period, phases * period, samples_per_phase=samples)
    assert len(trajectory) == phases * samples + 1
    per_phase = np.bincount(trajectory.sample_phases[1:])
    assert per_phase.tolist() == [samples] * phases
    gaps = np.diff(trajectory.times)
    np.testing.assert_allclose(gaps, period / samples, rtol=1e-9)


def test_short_last_phase_keeps_the_sample_spacing(two_links):
    trajectory = simulate_best_response(two_links, 0.7, 20.5 * 0.7, samples_per_phase=10)
    assert len(trajectory.phases) == 21
    assert len(trajectory) == 20 * 10 + 5 + 1
    np.testing.assert_allclose(np.diff(trajectory.times), 0.07, rtol=1e-9)


@pytest.mark.parametrize("name", ["two-links-steep", "braess"])
def test_batched_period_sweep_equals_one_row_runs(name):
    network = get_instance(name)
    start = FlowVector.random(network, np.random.default_rng(9))
    periods = [0.3, 0.5, 0.7, 1.1]
    result = simulate_batch(
        network, best_response_policy(), periods, 6.0, initial_flows=start,
        steps_per_phase=10, record_every=1,
    )
    for row, period in enumerate(periods):
        alone = simulate_best_response(network, period, 6.0, initial_flow=start)
        batched = result.trajectory(row)
        assert np.array_equal(batched.times, alone.times)
        assert np.array_equal(batched.flow_matrix(), alone.flow_matrix())
        assert len(batched.phases) == len(alone.phases)


def test_fresh_label_keeps_the_stale_phases(two_links):
    start = FlowVector(two_links, [0.9, 0.1])
    stale = simulate_best_response(two_links, 0.05, 1.0, initial_flow=start)
    fresh = simulate_best_response(two_links, 0.05, 1.0, initial_flow=start, stale=False)
    assert (stale.policy_name, stale.update_period) == ("best-response", 0.05)
    assert (fresh.policy_name, fresh.update_period) == ("best-response (fresh)", 0.0)
    assert np.array_equal(stale.flow_matrix(), fresh.flow_matrix())


@pytest.mark.parametrize("num_agents", [1_000, 100_000])
def test_finite_population_tracks_the_fluid_two_period_cycle(num_agents):
    """The paper's finite system on its oscillation instance: n agents under
    stale best response.  Phase-start shares stay within 4/sqrt(n) of the
    fluid cycle x0, 1 - x0, x0, ... with x0 = 1/(e^-T + 1): each phase adds
    binomial noise of std at most 0.5/sqrt(n), and the two-phase map contracts
    by e^-2T, so the deviation stays O(1/sqrt(n))."""
    period, phases, seeds = 1.0, 40, 8
    network = two_link_network(beta=2.0)
    result = simulate_agent_batch(
        network, best_response_policy(), num_agents, period, phases * period,
        initial_flows=oscillation_initial_flow(network, period), seeds=np.arange(seeds),
    )
    fixed = 1.0 / (math.exp(-period) + 1.0)
    cycle = np.where(np.arange(phases + 1) % 2 == 0, fixed, 1.0 - fixed)
    shares = result.flows[:, : phases + 1, 0]
    assert result.num_points.tolist() == [phases + 1] * seeds
    assert np.abs(shares - cycle).max() <= 4.0 / math.sqrt(num_agents)
