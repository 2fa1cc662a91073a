"""Unit tests for the bulletin board and the numerical integrators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchBulletinBoard
from repro.core import euler_step_batch, rk4_step_batch
from repro.core.dynamics import batch_stepper_for
from repro.wardrop import FlowVector


class TestBulletinBoard:
    """One bulletin board: the one-row case of :class:`BatchBulletinBoard`."""

    def test_posts_freeze_the_snapshot_until_the_next_post(self, two_links):
        board = BatchBulletinBoard(two_links, np.array([1.0]))
        assert board.phase_index[0] == -1
        board.post_rows(0.0, np.array([[0.9, 0.1]]))
        posted = board.posted_path_latencies.copy()
        assert board.phase_index[0] == 0 and board.posted_times[0] == 0.0
        board.post_rows(np.array([1.0]), np.array([[0.5, 0.5]]))
        assert board.phase_index[0] == 1 and board.posted_times[0] == 1.0
        assert np.allclose(board.posted_flows[0], [0.5, 0.5])
        assert not np.array_equal(board.posted_path_latencies, posted)

    def test_path_latencies_consistent_with_edge_latencies(self, braess):
        board = BatchBulletinBoard(braess, np.array([0.5]))
        flow = FlowVector.uniform(braess)
        board.post_rows(0.0, flow.values()[None, :])
        expected = braess.path_latencies(flow.values())
        assert np.allclose(board.posted_path_latencies[0], expected)


def integrate(field, state, start, end, max_step, method="rk4"):
    """Integrate a 1-D state as a one-row batch in equal steps <= ``max_step``."""
    stepper = batch_stepper_for(method)
    count = int(np.ceil((end - start) / max_step))
    step = (end - start) / count
    current = state[None, :]
    for k in range(count):
        current = stepper(field, start + k * step, current, step)
    return current[0]


class TestIntegrators:
    def test_euler_linear_decay(self):
        # dx/dt = -x, x(0)=1: Euler with small steps approximates exp(-1).
        field = lambda t, x: -x
        state = np.array([1.0])
        result = integrate(field, state, 0.0, 1.0, max_step=1e-3, method="euler")
        assert result[0] == pytest.approx(np.exp(-1.0), rel=1e-2)

    def test_rk4_linear_decay_high_accuracy(self):
        field = lambda t, x: -x
        state = np.array([1.0])
        result = integrate(field, state, 0.0, 1.0, max_step=0.05, method="rk4")
        assert result[0] == pytest.approx(np.exp(-1.0), rel=1e-7)

    def test_rk4_more_accurate_than_euler(self):
        field = lambda t, x: -x
        state = np.array([1.0])
        exact = np.exp(-1.0)
        euler = integrate(field, state, 0.0, 1.0, max_step=0.05, method="euler")[0]
        rk4 = integrate(field, state, 0.0, 1.0, max_step=0.05, method="rk4")[0]
        assert abs(rk4 - exact) < abs(euler - exact)

    def test_single_steps(self):
        field = lambda t, x: np.full_like(x, 2.0)
        assert euler_step_batch(field, 0.0, np.array([[0.0]]), 0.5)[0, 0] == pytest.approx(1.0)
        assert rk4_step_batch(field, 0.0, np.array([[0.0]]), 0.5)[0, 0] == pytest.approx(1.0)

    def test_per_row_step_sizes(self):
        field = lambda t, x: np.full_like(x, 2.0)
        steps = np.array([[0.5], [0.25]])
        advanced = rk4_step_batch(field, np.zeros((2, 1)), np.zeros((2, 1)), steps)
        assert advanced[:, 0] == pytest.approx([1.0, 0.5])

    def test_time_dependent_field(self):
        # dx/dt = t  ->  x(1) = 1/2.
        field = lambda t, x: np.full_like(x, t)
        result = integrate(field, np.array([0.0]), 0.0, 1.0, max_step=0.01, method="rk4")
        assert result[0] == pytest.approx(0.5, rel=1e-6)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            batch_stepper_for("leapfrog")
