"""Every engine emits its span tree and counters -- without changing results.

Each test runs one engine twice on identical inputs, once with an active
telemetry session and once without, and asserts (a) bit-identical outputs,
and (b) the expected ``engine_run``/``phase`` span structure and counter
namespace in the recorded session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import simulate_agent_batch, simulate_batch
from repro.core import simulate, simulate_agents, uniform_policy
from repro.instances import sioux_falls_network, two_link_network
from repro.largescale import (
    ActivePathSet,
    ShortestPathOracle,
    simulate_with_column_generation,
)
from repro.solvers import solve_edge_flow_equilibrium
from repro.telemetry import telemetry_session
from repro.wardrop import FlowVector


@pytest.fixture
def workload():
    network = two_link_network(beta=2.0)
    policy = uniform_policy(network)
    start = FlowVector(network, [0.8, 0.2])
    return network, policy, start


def span_names(tele):
    return {record["name"] for record in tele.tracer.records()}


def engine_runs(tele):
    return [
        record
        for record in tele.tracer.records()
        if record["name"] == "engine_run"
    ]


class TestFluidOneRow:
    def test_spans_counters_and_bit_identity(self, workload):
        network, policy, start = workload
        kwargs = dict(update_period=0.2, horizon=2.0, initial_flow=start)
        plain = simulate(network, policy, **kwargs)
        with telemetry_session() as tele:
            traced = simulate(network, policy, **kwargs)
        assert np.array_equal(plain.flow_matrix(), traced.flow_matrix())
        assert {"engine_run", "phase", "field_eval", "integrate"} <= span_names(tele)
        (run,) = engine_runs(tele)
        assert (run["attrs"]["engine"], run["attrs"]["rows"]) == ("fluid-batch", 1)
        flat = tele.metrics.flatten()
        assert flat["batch.phases_integrated"] == 10
        assert flat["batch.bulletin_refreshes"] >= 1


class TestAgents:
    def test_spans_counters_and_bit_identity(self, workload):
        network, policy, start = workload
        kwargs = dict(num_agents=200, update_period=0.2, horizon=2.0,
                      initial_flow=start, seed=7)
        plain = simulate_agents(network, policy, **kwargs)
        with telemetry_session() as tele:
            traced = simulate_agents(network, policy, **kwargs)
        assert np.array_equal(plain.flow_matrix(), traced.flow_matrix())
        (run,) = engine_runs(tele)
        assert (run["attrs"]["engine"], run["attrs"]["rows"]) == ("agents-batch", 1)
        assert run["attrs"]["agents"] == 200
        flat = tele.metrics.flatten()
        # Stale phases draw no activations: they count the agents that moved.
        assert flat["agents_batch.migrations"] > 0
        assert flat["agents_batch.phases_integrated"] > 0

    def test_fresh_runs_count_activations(self, workload):
        network, policy, start = workload
        with telemetry_session() as tele:
            simulate_agents(network, policy, num_agents=200, update_period=0.2, horizon=2.0,
                            initial_flow=start, seed=7, stale=False)
        assert tele.metrics.flatten()["agents_batch.events"] > 0


class TestFluidBatch:
    def test_spans_counters_and_bit_identity(self, workload):
        network, policy, start = workload
        periods = [0.2, 0.25, 0.4]
        kwargs = dict(initial_flows=start, steps_per_phase=10)
        plain = simulate_batch(network, policy, periods, 2.0, **kwargs)
        with telemetry_session() as tele:
            traced = simulate_batch(network, policy, periods, 2.0, **kwargs)
        for row in range(len(periods)):
            assert np.array_equal(plain.flow_matrix(row), traced.flow_matrix(row))
        (run,) = engine_runs(tele)
        assert run["attrs"]["engine"] == "fluid-batch"
        assert run["attrs"]["rows"] == 3
        assert run["attrs"]["phases_integrated"] > 0
        flat = tele.metrics.flatten()
        assert flat["batch.phases_integrated"] == run["attrs"]["phases_integrated"]
        assert flat["batch.runs"] == 1


class TestAgentsBatch:
    def test_spans_counters_and_bit_identity(self, workload):
        network, policy, start = workload
        kwargs = dict(num_agents=[100, 150], update_periods=0.25, horizons=2.0,
                      initial_flows=start, seeds=[3, 4])
        plain = simulate_agent_batch(network, policy, **kwargs)
        with telemetry_session() as tele:
            traced = simulate_agent_batch(network, policy, **kwargs)
        for row in range(2):
            assert np.array_equal(plain.flow_matrix(row), traced.flow_matrix(row))
        (run,) = engine_runs(tele)
        assert run["attrs"]["engine"] == "agents-batch"
        assert run["attrs"]["rows"] == 2
        assert run["attrs"]["agents"] == 250
        flat = tele.metrics.flatten()
        assert flat["agents_batch.migrations"] > 0
        assert flat["agents_batch.runs"] == 1


class TestColumnGeneration:
    def test_spans_counters_and_bit_identity(self):
        network = sioux_falls_network(max_od_pairs=10)

        def build():
            return ActivePathSet.from_network(sioux_falls_network(max_od_pairs=10))

        policy = uniform_policy(network)
        kwargs = dict(update_period=0.2, horizon=1.0)
        plain = simulate_with_column_generation(build(), policy, **kwargs)
        with telemetry_session() as tele:
            traced = simulate_with_column_generation(build(), policy, **kwargs)
        assert np.array_equal(
            plain.final_flow.values(), traced.final_flow.values()
        )
        assert plain.total_columns_added == traced.total_columns_added
        (run,) = engine_runs(tele)
        assert (run["attrs"]["engine"], run["attrs"]["rows"]) == ("column-generation-batch", 1)
        assert run["attrs"]["paths"] == traced.network.num_paths
        assert "column_generation_round" in span_names(tele)
        flat = tele.metrics.flatten()
        # Column generation integrates on the fluid engine, so its phases
        # and board posts count under the engine's own counters.
        assert flat["batch.phases_integrated"] == len(traced.trajectory.phases)
        assert flat["batch.bulletin_refreshes"] == len(traced.trajectory.phases)
        assert flat["cg_batch.columns_added"] == traced.total_columns_added


class TestEdgeFrankWolfe:
    def test_gap_series_and_bit_identity(self):
        network = sioux_falls_network(max_od_pairs=10)
        oracle = ShortestPathOracle.for_network(network)
        kwargs = dict(tolerance=1e-3, oracle=oracle)
        plain = solve_edge_flow_equilibrium(network, **kwargs)
        with telemetry_session() as tele:
            traced = solve_edge_flow_equilibrium(network, **kwargs)
        assert np.array_equal(plain.edge_flows, traced.edge_flows)
        assert plain.iterations == traced.iterations
        (run,) = engine_runs(tele)
        assert run["attrs"]["engine"] == "edge-fw"
        assert run["attrs"]["iterations"] == traced.iterations
        assert "fw_iteration" in span_names(tele)
        flat = tele.metrics.flatten()
        assert flat["fw.iterations"] == traced.iterations
        # The gap-vs-wall-time curve is recorded point by point.
        series = tele.metrics.series_of("fw.relative_gap")
        assert len(series) == traced.iterations
        times = [x for x, _ in series.points]
        assert times == sorted(times)
        assert series.points[-1][1] == pytest.approx(traced.relative_gap)
        # The series is annotated with the solver method that produced it.
        assert series.attrs["method"] == "fw"

    def test_gap_series_carries_the_accelerated_method(self):
        network = sioux_falls_network(max_od_pairs=10)
        oracle = ShortestPathOracle.for_network(network)
        with telemetry_session() as tele:
            traced = solve_edge_flow_equilibrium(
                network, tolerance=1e-3, oracle=oracle, method="bfw"
            )
        assert traced.method == "bfw"
        (run,) = engine_runs(tele)
        assert run["attrs"]["method"] == "bfw"
        assert tele.metrics.series_of("fw.relative_gap").attrs["method"] == "bfw"
