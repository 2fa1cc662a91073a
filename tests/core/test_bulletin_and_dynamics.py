"""Unit tests for the bulletin board and the Dormand--Prince step of fresh rows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchBulletinBoard
from repro.core import dormand_prince_step
from repro.core.dynamics import MAX_FACTOR, MIN_FACTOR, SAFETY, batch_stepper_for, step_factors
from repro.wardrop import FlowVector, NetworkFamily


class TestBulletinBoard:
    """One bulletin board: the one-row case of :class:`BatchBulletinBoard`."""

    def test_posts_freeze_the_snapshot_until_the_next_post(self, two_links):
        board = BatchBulletinBoard(NetworkFamily.replicate(two_links, 1), np.array([1.0]))
        assert board.phase_index[0] == -1
        board.post_rows(0.0, np.array([[0.9, 0.1]]))
        posted = board.posted_path_latencies.copy()
        assert board.phase_index[0] == 0 and board.posted_times[0] == 0.0
        board.post_rows(np.array([1.0]), np.array([[0.5, 0.5]]))
        assert board.phase_index[0] == 1 and board.posted_times[0] == 1.0
        assert np.allclose(board.posted_flows[0], [0.5, 0.5])
        assert not np.array_equal(board.posted_path_latencies, posted)

    def test_path_latencies_consistent_with_edge_latencies(self, braess):
        board = BatchBulletinBoard(NetworkFamily.replicate(braess, 1), np.array([0.5]))
        flow = FlowVector.uniform(braess)
        board.post_rows(0.0, flow.values()[None, :])
        expected = braess.path_latencies(flow.values())
        assert np.allclose(board.posted_path_latencies[0], expected)


DEMAND = np.array([1.0])


def integrate(field, state, end, max_step):
    """Integrate a 1-D state over ``[0, end]`` as a one-row batch of equal Dormand--Prince steps."""
    count = int(np.ceil(end / max_step))
    step = np.array([[end / count]])
    current = state[None, :]
    slope = field(current)
    for _ in range(count):
        current, slope, _ = dormand_prince_step(field, current, slope, step, DEMAND)
    return current[0]


def attempt(field, state, steps):
    """One Dormand--Prince attempt from ``state`` with per-row ``steps``."""
    return dormand_prince_step(field, state, field(state), np.array(steps), DEMAND)


class TestIntegrators:
    def test_linear_decay_matches_exp(self):
        # dx/dt = -x, x(0) = 1: twenty fifth-order steps land within 1e-10 of exp(-1).
        result = integrate(lambda x: -x, np.array([1.0]), 1.0, max_step=0.05)
        assert result[0] == pytest.approx(np.exp(-1.0), rel=1e-10, abs=0)

    def test_error_norm_rejects_long_steps_and_accepts_short_ones(self):
        decay = lambda x: -x
        state = np.array([[1.0]])
        _, _, long_norm = attempt(decay, state, [[1.0]])
        proposal, slope, short_norm = attempt(decay, state, [[0.01]])
        assert long_norm[0] > 1.0 >= short_norm[0]
        # The accepted short step lands on exp(-h); its slope is the field there.
        assert proposal[0, 0] == pytest.approx(np.exp(-0.01), rel=1e-13, abs=0)
        np.testing.assert_array_equal(slope, -proposal)

    def test_step_factors_grow_shrink_and_treat_nan_as_a_failure(self):
        factors = step_factors(np.array([0.0, 1.0, 1e10, np.inf, np.nan]))
        expected = [MAX_FACTOR, SAFETY, MIN_FACTOR, MIN_FACTOR, MIN_FACTOR]
        np.testing.assert_array_equal(factors, expected)

    def test_single_steps(self):
        field = lambda x: np.full_like(x, 2.0)
        state = np.array([[0.0]])
        proposal, _, norm = attempt(field, state, [[0.5]])
        assert proposal[0, 0] == pytest.approx(1.0) and norm[0] == pytest.approx(0.0, abs=1e-3)

    def test_per_row_step_sizes(self):
        field = lambda x: np.full_like(x, 2.0)
        state = np.zeros((2, 1))
        advanced, _, _ = attempt(field, state, [[0.5], [0.25]])
        assert advanced[:, 0] == pytest.approx([1.0, 0.5])

    def test_time_dependent_field(self):
        # dx/dt = t as the autonomous system (x, t)' = (t, 1): x(1) = 1/2.
        field = lambda y: np.stack([y[:, 1], np.ones(len(y))], axis=1)
        result = integrate(field, np.array([0.0, 0.0]), 1.0, max_step=0.25)
        assert result == pytest.approx([0.5, 1.0], rel=1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="stepper"):
            batch_stepper_for("leapfrog")
