"""``simulate`` against the independent reference integrator of Eq. (1)/(3).

The fluid engine is one code path (``simulate`` is its one-row case), so its
arithmetic is checked here against ``tests/reference_dynamics.py``, which is
written from the paper's formulas and shares no engine, board, policy or
projection code.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_dynamics import reference_run
from repro.core import replicator_policy, simulate, uniform_policy
from repro.instances import get_instance, parallel_links_network
from repro.wardrop import AffineLatency, FlowVector

INSTANCES = ["pigou-linear", "braess", "two-links-steep", "parallel-8-affine"]
POLICIES = {"uniform": uniform_policy, "proportional": replicator_policy}
MODES = {"stale": True, "fresh": False}
# A stale phase is exact (the largest error measured on this grid is 1.1e-16);
# a fresh one is error-controlled against the reference's DOP853 at rtol 1e-12.
TOLERANCE = {True: 1e-12, False: 1e-9}


def reference(network, sampling, policy, start, **run):
    exploration = getattr(policy.sampling, "exploration", 0.0)
    return reference_run(
        network, sampling, policy.migration.max_latency, exploration, start=start.values(), **run
    )


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("sampling", sorted(POLICIES))
@pytest.mark.parametrize("name", INSTANCES)
def test_simulate_matches_the_reference(name, sampling, mode):
    stale = MODES[mode]
    network = get_instance(name)
    policy = POLICIES[sampling](network)
    start = FlowVector.random(network, np.random.default_rng(3))
    trajectory = simulate(
        network, policy, update_period=0.15, horizon=1.4, initial_flow=start, stale=stale
    )
    times, flows = reference(
        network, sampling, policy, start, period=0.15, horizon=1.4, steps=12, stale=stale
    )
    np.testing.assert_allclose(trajectory.times, times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=TOLERANCE[stale])
    # The run moved: a trajectory stuck at its start would match trivially.
    assert np.abs(flows[-1] - flows[0]).max() > 1e-3


def long_braess_runs():
    """``simulate`` and the reference over 45 phases of T = 0.1 (boundary flows)."""
    network = get_instance("braess")
    policy = uniform_policy(network)
    start = FlowVector.random(network, np.random.default_rng(4))
    trajectory = simulate(
        network, policy, update_period=0.1, horizon=4.5, initial_flow=start
    )
    _, flows = reference(network, "uniform", policy, start, period=0.1, horizon=4.5, steps=10)
    return trajectory.flow_matrix(), flows


def test_stale_board_posts_at_every_phase_start():
    # With T = 0.1, floor(43 T / T) rounds down to 42: a board that refreshed
    # only when floor(t / T) advanced would keep phase 42's snapshot through
    # phase 43.  Eq. (3) posts at every phase start, over the whole run.
    ours, theirs = long_braess_runs()
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


def test_a_fresh_row_crossing_a_kink_matches_the_event_located_reference():
    # l_1 falls below l_3 inside phase 5, where mu_13 and mu_31 have a kink.
    # The embedded error estimate does not see it: without the engine's kink
    # control this row ends 8.8e-10 away from the reference, which restarts
    # DOP853 at the crossing; with it, 4.0e-12.
    network = parallel_links_network(
        [AffineLatency(2.7, 0.1), AffineLatency(2.8, 0.3), AffineLatency(0.9, 0.7)]
    )
    policy = uniform_policy(network)
    start = FlowVector(network, [0.36, 0.24, 0.4])
    period = 0.51
    trajectory = simulate(
        network, policy, update_period=period, horizon=6 * period, initial_flow=start,
        stale=False,
    )
    _, flows = reference(
        network, "uniform", policy, start, period=period, horizon=6 * period, steps=1,
        stale=False,
    )
    gaps = [np.subtract(*network.path_latencies(flow)[[0, 2]]) for flow in flows]
    assert gaps[4] > 0 > gaps[5]
    np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=1e-11)
