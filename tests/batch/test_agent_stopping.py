"""Early stopping for the finite-population agent engine.

`simulate_agents` and `BatchAgentSimulator` accept `stop_when`, evaluated at
phase boundaries on the realised flows and mirroring the fluid engine's
freezing semantics: a stopping row records the triggering phase, then issues
no further generator draws -- so a stopped row of a batch remains
bit-identical to the one-row run that stops at the same phase.
"""

import numpy as np
import pytest

from repro.batch.agents import BatchAgentConfig, BatchAgentSimulator, simulate_agent_batch
from repro.batch.stopping import distance_stop
from repro.core import replicator_policy, simulate_agents, uniform_policy
from repro.instances import pigou_network, two_link_network
from repro.telemetry import telemetry_session
from repro.wardrop import FlowVector


def one_row_run(network, policy, n, period, horizon, seed, stop_when=None, stale=True):
    """A one-row run, plus its assignment."""
    result = simulate_agent_batch(
        network, policy, n, period, horizon, seeds=seed, stale=stale, stop_when=stop_when
    )
    return result.trajectory(0), result.assignments[0]


class TestOneRowStopping:
    def test_stop_ends_the_run_at_the_firing_phase(self):
        network = two_link_network(beta=4.0)
        policy = uniform_policy(network)
        fired = []

        def stop(times, flows, rows):
            fired.append(times[0])
            return np.array([len(fired) == 4])

        trajectory, _ = one_row_run(network, policy, 50, 0.2, 5.0, 3, stop_when=stop)
        assert len(trajectory.phases) == 4
        assert trajectory.times[-1] == pytest.approx(0.8)

    def test_simulate_agents_passes_the_condition_through(self):
        network = two_link_network(beta=4.0)
        policy = uniform_policy(network)
        trajectory = simulate_agents(
            network, policy, 40, 0.1, 5.0, seed=1,
            stop_when=lambda times, flows, rows: times >= 0.3,
        )
        assert trajectory.times[-1] == pytest.approx(0.3)
        assert len(trajectory.phases) == 3

    def test_prefix_of_a_non_stopping_run(self):
        """Stopping only truncates: the prefix matches the unstopped run."""
        network = pigou_network(degree=1)
        policy = replicator_policy(network, exploration=1e-3)
        stopped, _ = one_row_run(
            network, policy, 80, 0.2, 4.0, 7,
            stop_when=lambda times, flows, rows: times >= 1.0,
        )
        full, _ = one_row_run(network, policy, 80, 0.2, 4.0, 7)
        prefix = min(len(stopped), len(full))
        assert np.array_equal(stopped.times[:prefix], full.times[:prefix])
        assert np.array_equal(stopped.flows[:prefix], full.flows[:prefix])


class TestBatchStopping:
    @pytest.mark.parametrize("stale", [True, False])
    def test_batch_rows_are_bit_identical_to_stopping_one_row_runs(self, stale):
        network = pigou_network(degree=1)
        policy = uniform_policy(network)
        target = np.array([[0.6, 0.4]] * 3)
        stop = distance_stop(target, tolerance=0.15)
        result = simulate_agent_batch(
            network, policy, [60, 90, 120], 0.2, 4.0,
            seeds=np.array([11, 12, 13]), stale=stale, stop_when=stop,
        )
        for row, (n, seed) in enumerate([(60, 11), (90, 12), (120, 13)]):
            trajectory, assignment = one_row_run(
                network, policy, n, 0.2, 4.0, seed,
                stop_when=lambda t, f, r, row=row: stop(t, f, r + row), stale=stale,
            )
            ours = result.trajectory(row)
            assert len(ours) == len(trajectory)
            assert np.array_equal(ours.flows, trajectory.flows)
            assert np.array_equal(result.assignments[row], assignment)
            if result.stop_phases[row] >= 0:
                assert len(trajectory.phases) == result.stop_phases[row] + 1

    def test_stop_phases_report_minus_one_when_never_firing(self):
        network = two_link_network(beta=2.0)
        result = simulate_agent_batch(
            network, uniform_policy(network), [30, 30], 0.25, 1.0,
            seeds=np.array([0, 1]),
            stop_when=lambda times, flows, rows: np.zeros(len(rows), dtype=bool),
        )
        assert np.array_equal(result.stop_phases, np.array([-1, -1]))
        assert not result.stopped_rows().any()

    def test_frozen_rows_stop_consuming_randomness(self):
        """A row frozen early must not disturb its neighbours' streams."""
        network = pigou_network(degree=1)
        policy = uniform_policy(network)

        def stop_row_zero(times, flows, rows):
            return np.asarray(rows) == 0

        stopped = simulate_agent_batch(
            network, policy, [50, 70], 0.2, 3.0, seeds=np.array([5, 6]),
            stop_when=stop_row_zero,
        )
        free = simulate_agent_batch(
            network, policy, [50, 70], 0.2, 3.0, seeds=np.array([5, 6]),
        )
        assert stopped.stop_phases[0] == 0
        assert stopped.num_points[0] == 2  # initial + the stopping phase
        # Row 1 never stopped and is untouched by row 0's freeze.
        assert np.array_equal(stopped.assignments[1], free.assignments[1])
        assert np.array_equal(
            stopped.flow_matrix(1), free.flow_matrix(1)
        )

    @pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
    def test_bad_mask_shape_raises_and_closes_the_spans(self, stale):
        network = two_link_network(beta=2.0)
        config = BatchAgentConfig(
            num_agents=np.array([20, 20]), update_periods=0.2, horizons=1.0,
            seeds=np.array([0, 1]), stale=stale,
        )
        simulator = BatchAgentSimulator(network, uniform_policy(network), config)
        with telemetry_session() as tele:
            with pytest.raises(ValueError, match="stop_when returned shape"):
                simulator.run(stop_when=lambda times, flows, rows: np.zeros(5, dtype=bool))
            # The failed run's spans are closed, so later spans start at the root.
            with tele.span("after"):
                pass
        records = {r["name"]: r for r in tele.tracer.records()}
        assert {"engine_run", "phase"} <= set(records)
        assert records["after"]["parent"] is None

    def test_initial_flows_still_respected_with_stopping(self):
        network = two_link_network(beta=2.0)
        start = FlowVector(network, [0.8, 0.2])
        result = simulate_agent_batch(
            network, uniform_policy(network), [40], 0.2, 1.0,
            initial_flows=start,
            stop_when=lambda times, flows, rows: np.ones(len(rows), dtype=bool),
        )
        assert result.flows[0, 0, 0] == pytest.approx(0.8, abs=0.05)
        assert result.stop_phases[0] == 0
