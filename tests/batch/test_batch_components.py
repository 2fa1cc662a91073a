"""Unit tests for the batched building blocks underneath the engine:
batched network/flow kernels, the policy tables and rate field on commodity
blocks, the batched bulletin board and the steppers.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_dynamics import tables
from repro.batch import BatchBulletinBoard, simulate_batch
from repro.core import (
    BetterResponseMigration,
    LinearMigration,
    ReroutingPolicy,
    SoftmaxSampling,
    UniformSampling,
    dormand_prince_step,
    replicator_policy,
    smoothed_best_response_policy,
    uniform_policy,
)
from repro.core.dynamics import batch_stepper_for
from repro.core.policy import PolicyStack, frozen_field
from repro.instances import braess_network, pigou_network
from repro.wardrop import FlowVector, NetworkFamily


class TestNetworkBatchKernels:
    def test_edge_and_path_latencies_match_scalar_rows(self):
        network = braess_network()
        rng = np.random.default_rng(11)
        flows = np.stack([FlowVector.random(network, rng).values() for _ in range(6)])
        edge_flows = network.edge_flows(flows)
        edge_latencies = network.edge_latencies(edge_flows)
        path_latencies = network.path_latencies(flows)
        assert path_latencies.flags.c_contiguous
        for row in range(6):
            np.testing.assert_array_equal(edge_flows[row], network.edge_flows(flows[row]))
            np.testing.assert_array_equal(
                edge_latencies[row], network.edge_latencies(network.edge_flows(flows[row]))
            )
            np.testing.assert_array_equal(
                path_latencies[row], network.path_latencies(flows[row])
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


class TestPolicyBlockKernels:
    """The tables and field of a :class:`PolicyStack`, on a ragged two-commodity
    network, against ``tests/reference_dynamics.py`` and against one-row stacks."""

    @pytest.mark.parametrize("sampling", ["uniform", "proportional"])
    def test_tables_and_field_match_the_reference(self, ragged, sampling):
        exploration = 0.05 if sampling == "proportional" else 0.0
        policy = (
            uniform_policy(ragged, max_latency=2.5)
            if sampling == "uniform"
            else replicator_policy(ragged, max_latency=2.5, exploration=exploration)
        )
        blocks = ragged.paths.blocks
        rng = np.random.default_rng(9)
        posted = np.stack([FlowVector.random(ragged, rng).values() for _ in range(3)])
        current = np.stack([FlowVector.random(ragged, rng).values() for _ in range(3)])
        latencies = ragged.path_latencies(posted)
        sigma, mu = PolicyStack.of([policy] * 3).tables(blocks, posted, latencies)
        field = frozen_field(blocks, sigma, mu)(current)
        for row in range(3):
            ref_sigma, ref_mu = tables(ragged, sampling, 2.5, exploration, posted[row])
            dense_sigma, dense_mu = (
                densify(blocks, np.broadcast_to(table, (3,) + blocks.pairs.shape)[row])
                for table in (sigma, mu)
            )
            # sigma is only read where mu can be nonzero (distinct paths of a commodity).
            mask = densify(blocks, blocks.pairs) > 0
            np.testing.assert_allclose(dense_sigma[mask], ref_sigma[mask], rtol=0, atol=1e-15)
            np.testing.assert_allclose(dense_mu, ref_mu * mask, rtol=0, atol=1e-15)
            rates = ref_sigma * ref_mu * mask
            expected = current[row] @ rates - current[row] * rates.sum(axis=1)
            np.testing.assert_allclose(field[row], expected, rtol=0, atol=1e-15)
            for start, stop in ragged.paths.commodity_slices():
                assert abs(field[row, start:stop].sum()) < 1e-15

    def test_per_row_and_mixed_class_policies_equal_their_one_row_stacks(self, ragged):
        """Rows of one class stack their parameters; classes form one group
        each; every row equals its own one-row evaluation bit for bit."""
        policies = [
            uniform_policy(ragged, max_latency=2.0),
            replicator_policy(ragged, max_latency=3.0, exploration=0.1),
            uniform_policy(ragged, max_latency=5.0),
            smoothed_best_response_policy(concentration=4.0, width=0.3),
            replicator_policy(ragged, max_latency=3.0, exploration=0.0),
            ReroutingPolicy(SoftmaxSampling(2.0), BetterResponseMigration()),
        ]
        stack = PolicyStack.of(policies)
        assert len(stack.sampling) == 3 and len(stack.migration) == 3
        blocks = ragged.paths.blocks
        rng = np.random.default_rng(4)
        posted = np.stack([FlowVector.random(ragged, rng).values() for _ in policies])
        current = np.stack([FlowVector.random(ragged, rng).values() for _ in policies])
        latencies = ragged.path_latencies(posted)
        for rows in (np.arange(len(policies)), np.array([1, 3, 4])):
            tables_ = stack.select(rows).tables(blocks, posted[rows], latencies[rows])
            field = frozen_field(blocks, *tables_)(current[rows])
            for i, row in enumerate(rows):
                alone = PolicyStack.of([policies[row]]).tables(
                    blocks, posted[row : row + 1], latencies[row : row + 1]
                )
                alone_field = frozen_field(blocks, *alone)(current[row : row + 1])
                assert np.array_equal(tables_[1][i], alone[1][0])
                assert np.array_equal(
                    np.broadcast_to(tables_[0][i], blocks.pairs.shape),
                    np.broadcast_to(alone[0][0], blocks.pairs.shape),
                )
                assert np.array_equal(field[i], alone_field[0])

    def test_opaque_rules_group_by_instance(self):
        class Opaque(UniformSampling):
            parameters = None

        policies = [
            ReroutingPolicy(Opaque(), LinearMigration(1.0)),
            ReroutingPolicy(Opaque(), LinearMigration(1.0)),
        ]
        stack = PolicyStack.of(policies)
        assert len(stack.sampling) == 2 and len(stack.migration) == 1
        # Equal parameters stay floats: nothing to index per phase.
        assert isinstance(stack.migration[0][1].max_latency, float)


def densify(blocks, table):
    """Scatter ``(C, K, K)`` blocks into the dense ``(P, P)`` matrix they encode."""
    size = len(blocks.commodity)
    dense = np.zeros((size, size))
    for c in range(blocks.shape[0]):
        real = blocks.index[c][blocks.valid[c]]
        count = len(real)
        dense[np.ix_(real, real)] = table[c, :count, :count]
    return dense


class TestBatchBoard:
    def test_per_row_clocks(self):
        network = pigou_network(degree=1)
        board = BatchBulletinBoard(NetworkFamily.replicate(network, 2), np.array([0.1, 0.4]))
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
            BatchBulletinBoard(NetworkFamily.replicate(network, 2), np.array([0.1, 0.0]))


class TestBatchSteppers:
    def test_rows_advance_independently_of_the_batch(self):
        def rates(state):
            return -0.5 * state

        state = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, 0.1]])
        steps = np.array([[0.1], [0.2], [0.05]])
        demands = np.ones(2)
        advanced = dormand_prince_step(rates, state, rates(state), steps, demands)
        for row in range(3):
            single = state[row : row + 1]
            alone = dormand_prince_step(rates, single, rates(single), steps[row : row + 1], demands)
            for together, one in zip(advanced, alone):
                np.testing.assert_array_equal(together[row], one[0])

    def test_batch_stepper_for_knows_only_the_dormand_prince_step(self):
        assert batch_stepper_for("dopri5") is dormand_prince_step

    def test_batch_stepper_for_rejects_unknown(self):
        with pytest.raises(ValueError, match="'rk4'"):
            batch_stepper_for("rk4")


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
