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
from repro.instances import get_instance
from repro.wardrop import FlowVector

INSTANCES = ["pigou-linear", "braess", "two-links-steep", "parallel-8-affine"]
POLICIES = {"uniform": uniform_policy, "proportional": replicator_policy}
# (stale, method): ``method`` reaches only fresh rows, which are integrated.
MODES = {"stale": (True, "rk4"), "fresh-rk4": (False, "rk4"), "fresh-euler": (False, "euler")}
# A stale phase is exact (the largest error measured on this grid is 1.1e-16);
# a fresh one repeats the reference's own steps.
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
    stale, method = MODES[mode]
    network = get_instance(name)
    policy = POLICIES[sampling](network)
    start = FlowVector.random(network, np.random.default_rng(3))
    run = dict(
        update_period=0.15, horizon=1.4, initial_flow=start, stale=stale, steps_per_phase=12
    )
    trajectory = simulate(network, policy, method=method, **run)
    times, flows = reference(
        network, sampling, policy, start,
        period=0.15, horizon=1.4, steps=12, method=method, stale=stale,
    )
    np.testing.assert_allclose(trajectory.times, times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=TOLERANCE[stale])
    # The run moved: a trajectory stuck at its start would match trivially.
    assert np.abs(flows[-1] - flows[0]).max() > 1e-3
    if stale:
        # No integrator touches a stale phase, so the method changes nothing.
        euler = simulate(network, policy, method="euler", **run)
        assert np.array_equal(euler.flow_matrix(), trajectory.flow_matrix())


def test_overshooting_euler_steps_are_clipped_and_rescaled_like_the_reference():
    # h = T = 2.5 moves more flow off the congested link than it carries, so
    # every phase end needs the clip-and-rescale repair.
    network = get_instance("two-links-steep")
    policy = uniform_policy(network)
    start = FlowVector(network, [0.95, 0.05])
    trajectory = simulate(
        network, policy, update_period=2.5, horizon=10.0, initial_flow=start,
        stale=False, steps_per_phase=1, method="euler",
    )
    _, flows = reference(
        network, "uniform", policy, start, period=2.5, horizon=10.0, steps=1, method="euler",
        stale=False,
    )
    np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=1e-9)
    assert (flows[1:] == 0.0).any()


def long_braess_runs():
    """``simulate`` and the reference over 45 phases of T = 0.1 (boundary flows)."""
    network = get_instance("braess")
    policy = uniform_policy(network)
    start = FlowVector.random(network, np.random.default_rng(4))
    trajectory = simulate(
        network, policy, update_period=0.1, horizon=4.5, initial_flow=start, steps_per_phase=10
    )
    _, flows = reference(
        network, "uniform", policy, start, period=0.1, horizon=4.5, steps=10, method="rk4"
    )
    return trajectory.flow_matrix(), flows


def test_stale_board_posts_at_every_phase_start():
    # With T = 0.1, floor(43 T / T) rounds down to 42: a board that refreshed
    # only when floor(t / T) advanced would keep phase 42's snapshot through
    # phase 43.  Eq. (3) posts at every phase start, over the whole run.
    ours, theirs = long_braess_runs()
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)
