"""Strided batched recording (`BatchConfig.record_every`).

`record_every=1` must record the projected state at every sub-step of the
`steps_per_phase` grid, as the reference solver of Eq. (1)/(3) computes it;
larger strides must sample a subset of those points; and phase-boundary
samples must be untouched by the recording mode on stale rows (dense
recording never changes the exact phase).  Fresh rows stop their
error-controlled steps at every sample, so there the samples land exactly on
the grid and match the reference at those times.
"""

import numpy as np
import pytest

from repro.batch import BatchConfig, BatchSimulator, simulate_batch
from repro.batch.stopping import distance_stop
from reference_dynamics import reference_run
from repro.core import replicator_policy, simulate, uniform_policy
from repro.instances import braess_network, two_link_network
from repro.wardrop import FlowVector


@pytest.fixture(params=[two_link_network, braess_network])
def network(request):
    return request.param()


def reference_dense(network, policy, start, period, horizon, steps, stale=True, record_every=1):
    return reference_run(
        network, "uniform", policy.migration.max_latency, 0.0, period, horizon, steps,
        start.values(), stale=stale, record_every=record_every,
    )


class TestDenseEquivalence:
    def test_stride_one_records_every_sub_step(self, network):
        policy = uniform_policy(network)
        start = FlowVector.random(network, np.random.default_rng(5))
        result = simulate_batch(
            network, policy, [0.1, 0.25], 1.05, initial_flows=[start, start],
            steps_per_phase=7, record_every=1,
        )
        for row, period in enumerate([0.1, 0.25]):
            times, flows = reference_dense(network, policy, start, period, 1.05, 7)
            trajectory = result.trajectory(row)
            np.testing.assert_allclose(trajectory.times, times, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=1e-9)
            ends = [min((k + 1) * period, 1.05) for k in range(int(np.ceil(1.05 / period)))]
            assert trajectory.phases[:, 1].tolist() == pytest.approx(ends)
            # The start carries index 0; phase k's intermediates and boundary carry
            # k.  A full phase takes exactly 7 sub-steps, even where (k + 1) T - k T
            # rounds above T; the short last phase keeps steps <= T / 7.
            expected = [0]
            for k, end in enumerate(ends):
                full = end == (k + 1) * period
                expected += [k] * (7 if full else int(np.ceil((end - k * period) / (period / 7))))
            assert trajectory.sample_phases.tolist() == expected

    def test_strided_samples_are_a_subset_of_the_dense_run(self, network):
        policy = uniform_policy(network)
        start = FlowVector.random(network, np.random.default_rng(6))
        dense = simulate_batch(
            network, policy, [0.1], 0.55, initial_flows=[start],
            steps_per_phase=8, record_every=1,
        ).trajectory(0)
        strided = simulate_batch(
            network, policy, [0.1], 0.55, initial_flows=[start],
            steps_per_phase=8, record_every=3,
        ).trajectory(0)
        assert 1 < len(strided) < len(dense)
        dense_times = dense.times
        for time, flow in zip(strided.times, strided.flows):
            k = int(np.argmin(np.abs(dense_times - time)))
            assert np.array_equal(flow, dense.flows[k])


class TestFreshDenseRecording:
    def test_fresh_samples_land_on_the_grid_and_match_the_reference(self, network):
        policy = uniform_policy(network)
        start = FlowVector.random(network, np.random.default_rng(8))
        periods, horizon, steps, stride = [0.1, 0.25], 1.05, 6, 2
        result = simulate_batch(
            network, policy, periods, horizon, initial_flows=[start, start], stale=False,
            steps_per_phase=steps, record_every=stride,
        )
        alone = [
            simulate_batch(
                network, policy, [period], horizon, initial_flows=[start], stale=False,
                steps_per_phase=steps, record_every=stride,
            )
            for period in periods
        ]
        for row, period in enumerate(periods):
            times, flows = reference_dense(
                network, policy, start, period, horizon, steps, stale=False, record_every=stride
            )
            count = result.num_points[row]
            # Sample j of phase k sits at k T + j d_k / n_k, as the reference places it.
            np.testing.assert_array_equal(result.times[row, :count], times)
            np.testing.assert_allclose(result.flows[row, :count], flows, rtol=0, atol=1e-9)
            assert count > result.num_phases(row) + 1  # intermediates were recorded
            single = alone[row]
            assert single.num_points[0] == count
            np.testing.assert_array_equal(single.times[0, :count], result.times[row, :count])
            np.testing.assert_array_equal(single.flows[0, :count], result.flows[row, :count])

    def test_fresh_samples_do_not_move_the_phase_ends_beyond_the_tolerance(self, network):
        # Stopping at samples changes a fresh row's steps, not its trajectory.
        policy = replicator_policy(network)
        start = FlowVector.random(network, np.random.default_rng(9))
        run = dict(update_period=0.2, horizon=1.0, initial_flow=start, stale=False)
        plain = simulate(network, policy, **run)
        dense = simulate_batch(
            network, policy, [0.2], 1.0, initial_flows=[start], stale=False,
            steps_per_phase=5, record_every=1,
        ).trajectory(0)
        np.testing.assert_allclose(dense.phase_ends, plain.flow_matrix()[1:], rtol=0, atol=1e-9)


class TestBoundariesAndMetadata:
    def test_phase_boundaries_are_identical_to_boundary_only_runs(self, network):
        policy = uniform_policy(network)
        start = FlowVector.random(network, np.random.default_rng(7))
        plain = simulate_batch(
            network, policy, [0.1, 0.2], 1.0, initial_flows=[start, start],
            steps_per_phase=6,
        )
        dense = simulate_batch(
            network, policy, [0.1, 0.2], 1.0, initial_flows=[start, start],
            steps_per_phase=6, record_every=2,
        )
        assert np.array_equal(dense.final_flows(), plain.final_flows())
        for row in range(2):
            assert dense.num_phases(row) == plain.num_phases(row)
            plain_traj = plain.trajectory(row)
            dense_traj = dense.trajectory(row)
            assert len(dense_traj.phases) == len(plain_traj.phases)
            assert np.array_equal(dense_traj.phase_ends, plain_traj.phase_ends)

    def test_boundary_only_runs_mark_every_sample_a_boundary(self, network):
        result = simulate_batch(network, uniform_policy(network), [0.1], 0.5)
        count = result.num_points[0]
        assert result.boundary_mask[0, :count].all()
        assert result.sample_phases[0, :count].tolist() == [0, 0, 1, 2, 3, 4]
        assert result.phase_counts.tolist() == [count - 1] == [5]

    def test_record_every_composes_with_stop_when(self):
        network = two_link_network(beta=4.0)
        policy = uniform_policy(network)
        start = FlowVector(network, [0.9, 0.1])
        stop = distance_stop(np.array([[0.5, 0.5], [0.5, 0.5]]), tolerance=0.05)
        dense = simulate_batch(
            network, policy, [0.1, 0.1], 20.0, initial_flows=[start, start],
            steps_per_phase=5, record_every=2, stop_when=stop,
        )
        plain = simulate_batch(
            network, policy, [0.1, 0.1], 20.0, initial_flows=[start, start],
            steps_per_phase=5, stop_when=stop,
        )
        assert np.array_equal(dense.stop_phases, plain.stop_phases)
        assert dense.stop_phases[0] >= 0
        assert np.array_equal(dense.final_flows(), plain.final_flows())

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError, match="record_every"):
            BatchConfig(update_periods=np.array([0.1]), record_every=0)

    def test_simulator_accepts_config_stride(self, network):
        config = BatchConfig(
            update_periods=np.array([0.1]), horizons=0.3, steps_per_phase=4,
            record_every=2,
        )
        result = BatchSimulator(network, uniform_policy(network), config).run()
        assert result.boundary_mask is not None
        count = int(result.num_points[0])
        # Boundary samples close each phase; intermediates carry the phase too.
        boundaries = [k for k in range(count) if result.boundary_mask[0, k]]
        assert boundaries[0] == 0
        assert boundaries[-1] == count - 1
        assert result.num_phases(0) == len(boundaries) - 1
