"""Unit tests for the batched building blocks underneath the engine:
batched network/flow kernels, batched sampling/migration matrices, the
batched bulletin board and the steppers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchBulletinBoard, simulate_batch
from repro.core import (
    BetterResponseMigration,
    LinearMigration,
    ProportionalSampling,
    ScaledLinearMigration,
    SmoothedBetterResponseMigration,
    SoftmaxSampling,
    UniformSampling,
    euler_step_batch,
    replicator_policy,
    rk4_step_batch,
)
from repro.core.dynamics import batch_stepper_for
from repro.core.policy import frozen_field, policy_tables
from repro.instances import braess_network, pigou_network
from repro.wardrop import FlowVector
class TestNetworkBatchKernels:
    def test_edge_and_path_latencies_match_scalar_rows(self):
        network = braess_network()
        rng = np.random.default_rng(11)
        flows = np.stack([FlowVector.random(network, rng).values() for _ in range(6)])
        edge_flows = network.edge_flows_batch(flows)
        edge_latencies = network.edge_latencies_batch(edge_flows)
        path_latencies = network.path_latencies_batch(flows)
        for row in range(6):
            np.testing.assert_allclose(
                edge_flows[row], network.edge_flows(flows[row]), atol=1e-15
            )
            np.testing.assert_allclose(
                edge_latencies[row],
                network.edge_latencies(network.edge_flows(flows[row])),
                atol=1e-15,
            )
            np.testing.assert_allclose(
                path_latencies[row], network.path_latencies(flows[row]), atol=1e-15
            )

    def test_project_batch_matches_projected(self):
        network = braess_network()
        rng = np.random.default_rng(5)
        raw = np.stack([FlowVector.random(network, rng).values() for _ in range(4)])
        raw += rng.normal(scale=1e-3, size=raw.shape)  # small infeasibility
        repaired = FlowVector.project_batch(network, raw)
        for row in range(4):
            expected = FlowVector(network, raw[row], validate=False).projected()
            np.testing.assert_allclose(repaired[row], expected.values(), atol=1e-15)

    def test_project_batch_starved_commodity(self):
        network = pigou_network(degree=1)
        raw = np.array([[-0.2, -0.1], [0.5, 0.5]])
        repaired = FlowVector.project_batch(network, raw)
        np.testing.assert_allclose(repaired[0], [0.5, 0.5])
        np.testing.assert_allclose(repaired[1], [0.5, 0.5])

    def test_projection_survives_subnormal_totals(self):
        """Subnormal routed mass must not overflow the rescale to inf/NaN."""
        network = pigou_network(degree=1)
        subnormal = np.array([[0.0, 5e-309]])
        repaired = FlowVector.project_batch(network, subnormal)
        assert np.isfinite(repaired).all()
        np.testing.assert_allclose(repaired[0], [0.5, 0.5])
        scalar = FlowVector(network, subnormal[0], validate=False).projected()
        assert np.isfinite(scalar.values()).all()
        np.testing.assert_allclose(scalar.values(), [0.5, 0.5])


SAMPLING_RULES = [UniformSampling(), ProportionalSampling(1e-3), SoftmaxSampling(2.0)]
MIGRATION_RULES = [
    BetterResponseMigration(),
    LinearMigration(3.0),
    ScaledLinearMigration(1.7),
    SmoothedBetterResponseMigration(0.2),
]


class TestPolicyBatchKernels:
    @pytest.mark.parametrize("rule", SAMPLING_RULES, ids=lambda r: type(r).__name__)
    def test_probabilities_batch_matches_scalar(self, rule):
        network = braess_network()
        rng = np.random.default_rng(2)
        flows = np.stack([FlowVector.random(network, rng).values() for _ in range(5)])
        latencies = network.path_latencies_batch(flows)
        batched = rule.probabilities_batch(network, flows, latencies)
        for row in range(5):
            expected = rule.probabilities(network, flows[row], latencies[row])
            np.testing.assert_allclose(batched[row], expected, atol=1e-15)

    @pytest.mark.parametrize("rule", MIGRATION_RULES, ids=lambda r: type(r).__name__)
    def test_matrix_batch_matches_scalar(self, rule):
        network = braess_network()
        rng = np.random.default_rng(4)
        flows = np.stack([FlowVector.random(network, rng).values() for _ in range(5)])
        latencies = network.path_latencies_batch(flows)
        batched = rule.matrix_batch(latencies)
        for row in range(5):
            np.testing.assert_allclose(batched[row], rule.matrix(latencies[row]), atol=1e-15)

    def test_frozen_field_matches_scalar_growth_rates(self):
        network = braess_network()
        policy = replicator_policy(network)
        rng = np.random.default_rng(9)
        current = np.stack([FlowVector.random(network, rng).values() for _ in range(3)])
        posted = np.stack([FlowVector.random(network, rng).values() for _ in range(3)])
        latencies = network.path_latencies_batch(posted)
        # One shared policy (vectorised tables) and per-row policies (row loop).
        for policies in (policy, [policy, replicator_policy(network), policy]):
            batched = frozen_field(*policy_tables(network, policies, posted, latencies))(
                0.0, current
            )
            for row in range(3):
                expected = policy.growth_rates(network, current[row], posted[row], latencies[row])
                np.testing.assert_allclose(batched[row], expected, atol=1e-15)
            # Growth rates conserve the demand of every commodity.
            np.testing.assert_allclose(batched.sum(axis=1), 0.0, atol=1e-12)


class TestBatchBoard:
    def test_per_row_clocks(self):
        network = pigou_network(degree=1)
        board = BatchBulletinBoard(network, np.array([0.1, 0.4]))
        flows = np.tile(FlowVector.uniform(network).values(), (2, 1))
        board.post_rows(0.0, flows)
        assert list(board.phase_index) == [0, 0]
        # Only the masked (fast) row posts at its next phase start.
        board.post_rows(np.array([0.1, 0.4]), flows, mask=np.array([True, False]))
        assert list(board.phase_index) == [1, 0]
        np.testing.assert_allclose(board.posted_times, [0.1, 0.0])

    def test_rejects_nonpositive_period(self):
        network = pigou_network(degree=1)
        with pytest.raises(ValueError):
            BatchBulletinBoard(network, np.array([0.1, 0.0]))


class TestBatchSteppers:
    def test_rows_advance_independently_of_the_batch(self):
        def rates(_t, state):
            return -0.5 * state

        state = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, 0.1]])
        steps = np.array([[0.1], [0.2], [0.05]])
        for batch_step in (euler_step_batch, rk4_step_batch):
            advanced = batch_step(rates, np.zeros((3, 1)), state, steps)
            for row in range(3):
                alone = batch_step(rates, 0.0, state[row : row + 1], float(steps[row, 0]))
                np.testing.assert_array_equal(advanced[row], alone[0])

    def test_batch_stepper_for_rejects_unknown(self):
        with pytest.raises(ValueError):
            batch_stepper_for("verlet")


class TestBatchResultShape:
    def test_final_flows_and_phase_counts(self):
        network = pigou_network(degree=1)
        policy = replicator_policy(network)
        result = simulate_batch(
            network, policy, [0.1, 0.5], 1.0, steps_per_phase=5
        )
        assert result.batch_size == 2
        assert result.num_phases(0) == 10
        assert result.num_phases(1) == 2
        final = result.final_flows()
        assert final.shape == (2, network.num_paths)
        np.testing.assert_allclose(final[0], result.final_flow(0).values())
        assert len(result.trajectories()) == 2
