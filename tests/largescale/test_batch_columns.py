"""Batched column generation: closed-mode bit-identity, union growth,
in-place buffer growth, per-row eviction, stopping, state checks and the
certificate surface.

There is one CG driver (``simulate_with_column_generation`` is its one-row
case).  Closed-mode rows are checked bit for bit against ``simulate``, the
fluid engine on the same fixed path set, which ``tests/reference_dynamics.py``
checks in turn; B-invariance covers the rest."""

import numpy as np
import pytest

from repro.core import (
    MigrationRule,
    ReroutingPolicy,
    UniformSampling,
    replicator_policy,
    simulate,
    uniform_policy,
)
from repro.instances import braess_network, get_instance, grid_network
from repro.largescale import (
    ActivePathSet,
    simulate_with_column_generation,
    simulate_with_column_generation_batch,
)
from repro.largescale.columns import _evict_closed_columns
from repro.scenarios import LinkIncident, Scenario, get_scenario
from repro.telemetry import telemetry_session
from repro.wardrop import FlowVector


def one_row_run(network, policy, closed=True, scenario=None, **kwargs):
    return simulate_with_column_generation(
        ActivePathSet.from_network(network, closed=closed),
        policy,
        scenario=scenario,
        **kwargs,
    )


class TestClosedModeBitIdentity:
    """Closed-mode rows reproduce ``simulate`` and their one-row runs bit for bit."""

    SETTINGS = dict(update_period=0.125, horizon=2.0)

    @pytest.mark.parametrize("incident", [False, True], ids=["calm", "incident"])
    @pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
    @pytest.mark.parametrize(
        "name", ["braess", "pigou-linear", "parallel-8-affine", "sioux-falls-mini"]
    )
    def test_rows_equal_simulate_on_the_fixed_path_set(self, name, stale, incident):
        network = get_instance(name)
        policy = replicator_policy(network, exploration=0.05)
        scenario = None
        if incident:
            scenario = Scenario(
                incidents=[LinkIncident(network.edges[0], 0.5, 1.25, capacity_factor=0.4)]
            )
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            policy,
            scenarios=[scenario, scenario],
            stale=stale,
            **self.SETTINGS,
        )
        reference = simulate(network, policy, stale=stale, scenario=scenario, **self.SETTINGS)
        for row in range(2):
            assert np.array_equal(batched.times[row], reference.times)
            assert np.array_equal(batched.flow_matrix(row), reference.flow_matrix())

    @pytest.mark.parametrize("policy_builder", [uniform_policy, replicator_policy])
    @pytest.mark.parametrize(
        "factory",
        [braess_network, lambda: grid_network(2, 3, num_commodities=2, seed=3)],
    )
    def test_rows_match_one_row_closed_runs(self, policy_builder, factory):
        network = factory()
        policy = policy_builder(network)
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            policy,
            batch=3,
            **self.SETTINGS,
        )
        single = one_row_run(network, policy, **self.SETTINGS)
        reference = single.trajectory.flows
        assert batched.growth_events == []
        for row in range(3):
            assert np.array_equal(batched.times[row], single.trajectory.times)
            assert np.array_equal(reference, batched.flow_matrix(row))

    def test_rows_with_distinct_scenarios_match_one_row_runs(self):
        """Per-row incidents (capacity drops at different times) must leave
        every closed-mode row bit-identical to its own one-row run."""
        network = grid_network(2, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        edge = network.edges[0]
        scenarios = [
            None,
            Scenario(incidents=[LinkIncident(edge, 0.5, 1.25, capacity_factor=0.5)]),
            Scenario(incidents=[LinkIncident(edge, 1.0, 1.75, capacity_factor=0.3)]),
        ]
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            policy,
            scenarios=scenarios,
            **self.SETTINGS,
        )
        for row, scenario in enumerate(scenarios):
            single = one_row_run(network, policy, scenario=scenario, **self.SETTINGS)
            assert np.array_equal(
                single.trajectory.flows, batched.flow_matrix(row)
            )

    def test_closure_scenario_rows_match_one_row_runs_including_eviction(self):
        """A closure evicts crossing columns per row at the onset phase; the
        repaired states must still replay the one-row runs exactly."""
        network = braess_network()
        policy = uniform_policy(network)
        scenarios = [get_scenario("braess-closure", network), None]
        settings = dict(update_period=0.5, horizon=14.0)
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            policy,
            scenarios=scenarios,
            **settings,
        )
        assert batched.eviction_events, "the closure must evict crossing columns"
        assert all(row == 0 for _, row, _ in batched.eviction_events)
        for row, scenario in enumerate(scenarios):
            single = one_row_run(network, policy, scenario=scenario, **settings)
            assert np.array_equal(
                single.trajectory.flows, batched.flow_matrix(row)
            )

    def test_closed_rows_on_a_grown_network_match_one_row_runs(self):
        """The regression behind the 1-ulp projection bug: freeze a set that
        *grew* (commodity blocks at shifted offsets) and require closed-mode
        rows to stay bit-identical on the grown geometry."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        open_result = simulate_with_column_generation(
            ActivePathSet.from_network(network),
            policy,
            update_period=0.125,
            horizon=5.0,
        )
        assert open_result.total_columns_added > 0
        grown = open_result.network
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(grown, closed=True),
            policy,
            batch=4,
            **self.SETTINGS,
        )
        single = one_row_run(grown, policy, **self.SETTINGS)
        reference = single.trajectory.flows
        for row in range(4):
            assert np.array_equal(reference, batched.flow_matrix(row))


class TestTrajectoryPhaseStarts:
    def test_closure_phase_starts_post_eviction_and_samples_pre_eviction(self):
        """Under a closure, ``phase_starts[k]`` is the repaired state (zero on
        crossing columns) phase k integrated from, while sample k stays the
        unrepaired end of phase k - 1."""
        network = braess_network()
        scenario = get_scenario("braess-closure", network)
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            uniform_policy(network),
            scenarios=[None, scenario],
            update_period=0.5,
            horizon=14.0,
            steps_per_phase=5,
        )
        ((phase, row, moved),) = result.eviction_events
        assert (row, phase) == (1, 20) and moved > 0.0
        crossing = [
            index
            for index, path in enumerate(result.network.paths)
            if any(edge in scenario.closed_edges(10.0) for edge in path.edges)
        ]
        assert crossing
        trajectory = result.trajectory(row)
        sample = trajectory.flows[phase]
        start = trajectory.phase_starts[phase]
        assert np.array_equal(start[crossing], np.zeros(len(crossing)))
        assert sample[crossing].sum() == pytest.approx(moved)
        assert np.array_equal(sample, trajectory.phase_ends[phase - 1])
        assert start.sum() == pytest.approx(sample.sum())
        # Without a closure, every phase starts where the previous one ended.
        calm = result.trajectory(0)
        assert np.array_equal(calm.phase_starts[1:], calm.flows[1 : len(calm.phases)])


class TestOpenModeGrowth:
    SETTINGS = dict(update_period=0.125, horizon=5.0)

    def test_one_row_wrapper_reports_the_row(self):
        """``simulate_with_column_generation`` is the one-row run: growth
        events, final path set, path counts and every sample carry over."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network), policy, batch=1, **self.SETTINGS
        )
        single = simulate_with_column_generation(
            ActivePathSet.from_network(network), policy, **self.SETTINGS
        )
        assert single.total_columns_added > 0
        assert batched.network.num_paths == single.network.num_paths
        assert [phase for phase, _ in batched.growth_events] == [
            phase for phase, _ in single.growth_events
        ]
        assert single.path_counts == batched.path_counts
        assert list(batched.network.paths) == list(single.network.paths)
        assert np.array_equal(
            single.trajectory.flows, batched.flow_matrix(0)
        )
        assert single.trajectory.policy_name == batched.trajectory(0).policy_name

    def test_new_columns_enter_with_zero_flow_on_every_row(self):
        """Union growth: a column discovered by one row joins all rows with
        zero flow at its growth phase (no closures here, so nothing is ever
        moved onto a fresh column)."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        edge = network.edges[0]
        scenarios = [
            None,
            Scenario(incidents=[LinkIncident(edge, 1.0, 3.0, capacity_factor=0.3)]),
        ]
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            policy,
            scenarios=scenarios,
            **self.SETTINGS,
        )
        assert result.growth_events
        for phase, paths in result.growth_events:
            indices = [result.network.paths.index_of(path) for path in paths]
            assert np.array_equal(
                result.phase_start_flows[:, phase, :][:, indices],
                np.zeros((len(scenarios), len(indices))),
            )

    def test_union_merges_candidates_from_different_rows(self):
        """The ``add_paths`` union entry point: candidates discovered by two
        rows land in one set, and the permutation maps every old index to
        where its path now lives."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        active = ActivePathSet.from_network(network)
        seed_paths = list(active.network.paths)
        values = np.zeros((2, active.num_paths))
        values[0, 0] = 1.0  # row 0 congests commodity 0's seed...
        values[1, -1] = 1.0  # ...row 1 congests commodity 1's
        oracle, seed_network = active.oracle, active.network
        candidates = []
        for row in range(2):
            edge_flows = oracle.expand_edge_values(
                seed_network, seed_network.edge_flows(values[row])
            )
            costs = oracle.latency_costs(seed_network, edge_flows)
            candidates.extend(oracle.shortest_commodity_paths(costs))
        added = active.add_paths(candidates)
        assert added
        perm = active.last_permutation
        grown = active.network
        for old_index, path in enumerate(seed_paths):
            assert grown.paths.index_of(path) == perm[old_index]
        for path in added:
            assert path in grown.paths
        # Re-adding the same candidates is a no-op.
        assert active.add_paths(candidates) == []

    def test_growth_keeps_every_row_feasible(self):
        """Growth re-expresses every row on the grown set: every sample of
        every row stays feasible across growth phases."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            batch=3,
            **self.SETTINGS,
        )
        assert result.growth_events
        demand = sum(c.demand for c in result.network.commodities)
        totals = result.flows.sum(axis=2)
        assert np.allclose(totals, demand, atol=1e-9)


class TestEvictionHelpers:
    def build(self):
        network = braess_network()
        closed = ActivePathSet.from_network(network, closed=True)
        return closed, closed.network

    def test_fully_closed_commodity_keeps_its_flow(self):
        """A commodity whose every column crosses a closure has nothing open
        to route onto: the flow stays put and nothing counts as moved."""
        _, network = self.build()
        values = np.array([0.25, 0.25, 0.5])
        latencies = network.path_latencies(values)
        repaired, moved = _evict_closed_columns(
            network, values, list(range(network.num_paths)), latencies
        )
        assert moved == 0.0
        assert np.array_equal(repaired, values)

    def test_zero_volume_on_closed_columns_moves_nothing(self):
        _, network = self.build()
        descriptions = network.paths.describe()
        shortcut = descriptions.index("s->a->b->t")
        values = np.zeros(network.num_paths)
        values[descriptions.index("s->a->t")] = 1.0
        latencies = network.path_latencies(values)
        repaired, moved = _evict_closed_columns(network, values, [shortcut], latencies)
        assert moved == 0.0
        assert np.array_equal(repaired, values)

    def test_empty_crossing_list_is_the_fast_path(self):
        _, network = self.build()
        values = np.array([0.2, 0.3, 0.5])
        repaired, moved = _evict_closed_columns(
            network, values, [], network.path_latencies(values)
        )
        assert moved == 0.0
        assert repaired is values  # no copy on the fast path

    def test_flow_moves_to_the_cheapest_open_column(self):
        _, network = self.build()
        descriptions = network.paths.describe()
        shortcut = descriptions.index("s->a->b->t")
        values = np.zeros(network.num_paths)
        values[shortcut] = 1.0
        latencies = network.path_latencies(values)
        repaired, moved = _evict_closed_columns(network, values, [shortcut], latencies)
        open_indices = [i for i in range(network.num_paths) if i != shortcut]
        best = min(open_indices, key=lambda p: (latencies[p], p))
        assert moved == pytest.approx(1.0)
        assert repaired[shortcut] == 0.0
        assert repaired[best] == pytest.approx(1.0)

    def test_invalidate_columns_on_a_grown_set(self):
        """Crossing detection must see columns added after the seed build."""
        network = grid_network(2, 3, num_commodities=1, seed=3)
        active = ActivePathSet.from_network(network)
        seed_network = active.network
        values = np.zeros(active.num_paths)
        values[0] = network.commodities[0].demand
        oracle = active.oracle
        edge_flows = oracle.expand_edge_values(seed_network, seed_network.edge_flows(values))
        added = active.augment(oracle.latency_costs(seed_network, edge_flows))
        assert added
        grown = active.network
        target_edge = added[0].edges[0]
        crossing = active.invalidate_columns(grown, {target_edge})
        expected = [
            index
            for index, path in enumerate(grown.paths)
            if target_edge in path.edges
        ]
        assert crossing == expected
        assert grown.paths.index_of(added[0]) in crossing


class TestBatchApiSurface:
    def test_duality_gaps_cover_every_row(self):
        network = grid_network(2, 3, num_commodities=2, seed=3)
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            update_period=0.25,
            horizon=4.0,
            steps_per_phase=5,
            batch=3,
        )
        assert result.duality_gaps.shape == (3,)
        assert np.all(np.isfinite(result.duality_gaps))
        assert np.all(result.duality_gaps >= 0.0)
        assert result.batch_size == 3
        assert np.array_equal(result.final_flows(), result.flows[:, -1, :])

    def test_trajectory_rows_round_trip_through_the_analysis_surface(self):
        network = braess_network()
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            uniform_policy(network),
            update_period=0.25,
            horizon=1.0,
            steps_per_phase=5,
            batch=2,
        )
        trajectory = result.trajectory(1)
        assert len(trajectory) == result.num_points[1]
        assert np.array_equal(trajectory.flows, result.flow_matrix(1))
        assert len(trajectory.phases) == len(result.phase_spans)

    def test_inconsistent_batch_sizes_rejected(self):
        network = braess_network()
        policy = uniform_policy(network)
        scenarios = [None, None]
        with pytest.raises(ValueError, match="batch sizes"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                policy,
                update_period=0.25,
                horizon=1.0,
                batch=3,
                scenarios=scenarios,
            )

    def test_missing_batch_size_rejected(self):
        network = braess_network()
        with pytest.raises(ValueError, match="batch size"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                uniform_policy(network),
                update_period=0.25,
                horizon=1.0,
            )

    def test_invalid_settings_rejected(self):
        network = braess_network()
        policy = uniform_policy(network)
        with pytest.raises(ValueError, match="positive"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                policy,
                update_period=0.0,
                horizon=1.0,
                batch=2,
            )
        with pytest.raises(ValueError, match="steps_per_phase"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                policy,
                update_period=0.25,
                horizon=1.0,
                steps_per_phase=0,
                batch=2,
            )

    def test_foreign_initial_flow_rejected(self):
        network = braess_network()
        other = braess_network()
        from repro.wardrop import FlowVector

        with pytest.raises(ValueError, match="different network"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network, closed=True),
                uniform_policy(network),
                update_period=0.25,
                horizon=1.0,
                batch=2,
                initial_flows=FlowVector.uniform(other),
            )


class TestStoppingAndState:
    def test_stop_when_freezes_rows_at_phase_boundaries(self):
        network = grid_network(3, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        calls = []

        def stop(times, flows, rows):
            calls.append((times.copy(), flows.shape, rows.copy()))
            return np.isin(rows, [0]) & (len(calls) == 3)

        settings = dict(update_period=0.25, horizon=5.0, steps_per_phase=5, batch=2)
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network), policy, stop_when=stop, **settings
        )
        assert list(result.stop_phases) == [2, -1]
        assert list(result.num_points) == [4, 21]
        assert result.times[0, 3] == pytest.approx(0.75)
        # The condition sees the active rows on the current restricted network.
        assert [list(rows) for _, _, rows in calls[:4]] == [[0, 1]] * 3 + [[1]]
        assert calls[-1][1] == (1, result.network.num_paths)
        with pytest.raises(ValueError, match="different clocks"):
            result.phase_spans
        full = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network), policy, **settings
        )
        # Identical rows discover identical columns, so freezing one row only
        # truncates it: both rows match the unstopped run.
        assert list(result.network.paths) == list(full.network.paths)
        assert np.array_equal(result.flow_matrix(0), full.flow_matrix(0)[:4])
        assert np.array_equal(result.flow_matrix(1), full.flow_matrix(1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_fails_at_the_phase_that_produced_it(self):
        class Exploding(MigrationRule):
            def probability(self, latency_from, latency_to):
                return np.where(np.greater(latency_from, latency_to), np.inf, 0.0)

        active = ActivePathSet.from_network(braess_network(), closed=True)
        policy = ReroutingPolicy(UniformSampling(), Exploding())
        with telemetry_session() as tele:
            with pytest.raises(ValueError, match="row 0 has non-finite flows at the end of phase 0"):
                simulate_with_column_generation_batch(
                    active, policy, update_period=0.1, horizon=1.0, batch=2,
                    initial_flows=FlowVector(active.network, [0.8, 0.1, 0.1]),
                )
            # The failed run's spans are closed, so later spans start at the root.
            with tele.span("after"):
                pass
        records = {r["name"]: r for r in tele.tracer.records()}
        assert {"engine_run", "phase", "integrate"} <= set(records)
        assert records["after"]["parent"] is None
