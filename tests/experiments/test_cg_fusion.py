"""Runner fusion of column-generation cases.

Same-network CG cases fuse into one batched CG call, whatever their update
periods, horizons and steps-per-phase; cases with an initial flow, a stop
condition or the agents method are rejected when the case is built.
Open-mode fused rows grow one shared (union) restricted path set, so
equality with the one-case run is asserted where it is guaranteed: B=1
groups, and multi-row groups whose rows are identical (union growth then
coincides with each row's own discovery).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import SweepCase
from repro.batch import distance_stop
from repro.core import replicator_policy, uniform_policy
from repro.experiments import group_key, run_cases
from repro.instances import braess_network, get_instance, grid_network
from repro.largescale import ActivePathSet, simulate_with_column_generation
from repro.scenarios import LinkIncident, Scenario
from repro.telemetry import telemetry_session
from repro.wardrop import FlowVector


def flows_row_builder(trajectory):
    """Expose the full sample matrix so bitwise comparisons survive rows."""
    return {
        "times": tuple(trajectory.times.tolist()),
        "flows": tuple(tuple(flow) for flow in trajectory.flows.tolist()),
    }


def cg_case(network, policy, scenario=None, **overrides):
    settings = dict(update_period=0.25, horizon=2.0, steps_per_phase=5)
    settings.update(overrides)
    return SweepCase(
        parameters={},
        network=network,
        policy=policy,
        column_generation=True,
        scenario=scenario,
        **settings,
    )


def incident(network, edge_index, start=0.5, end=1.25):
    edge = network.edges[edge_index]
    return Scenario(
        incidents=[LinkIncident(edge, start, end, capacity_factor=0.5)]
    )


class TestGroupKeys:
    def test_same_network_and_grid_cases_share_a_key(self):
        network = braess_network()
        a = cg_case(network, uniform_policy(network))
        b = cg_case(network, replicator_policy(network), scenario=incident(network, 0))
        assert group_key(a) == group_key(b)
        assert group_key(a)[3] is not None  # the CG fusion signature

    def test_different_phase_grids_share_a_key(self):
        network = braess_network()
        base = cg_case(network, uniform_policy(network))
        for overrides in (
            dict(update_period=0.5),
            dict(horizon=4.0),
            dict(steps_per_phase=9),
        ):
            other = cg_case(network, uniform_policy(network), **overrides)
            assert group_key(base) == group_key(other)

    def test_equal_but_distinct_network_objects_split_the_group(self):
        # Fused rows grow ONE shared ActivePathSet, so object identity (not
        # just topology equality) gates CG fusion.
        a = cg_case(braess_network(), uniform_policy(braess_network()))
        b = cg_case(braess_network(), uniform_policy(braess_network()))
        assert group_key(a) != group_key(b)

    def test_initial_flow_stop_when_and_agents_are_rejected_at_construction(self):
        network = braess_network()
        policy = uniform_policy(network)
        with pytest.raises(ValueError, match="initial_flow"):
            cg_case(network, policy, initial_flow=FlowVector.uniform(network))
        with pytest.raises(ValueError, match="stop_when"):
            cg_case(
                network, policy, stop_when=distance_stop(np.zeros(network.num_paths), 1e-9)
            )
        with pytest.raises(ValueError, match="method"):
            cg_case(network, policy, method="agents")


class TestFusedExecution:
    def test_single_case_matches_the_one_row_driver_bitwise(self):
        network = grid_network(2, 3, num_commodities=2, seed=3)
        scenario = incident(network, 1)
        case = cg_case(network, replicator_policy(network), scenario=scenario)
        rows = run_cases([case], flows_row_builder).rows
        single = simulate_with_column_generation(
            ActivePathSet.from_network(network),
            replicator_policy(network),
            update_period=0.25,
            horizon=2.0,
            scenario=scenario,
        )
        assert rows == [flows_row_builder(single.trajectory)]

    def test_identical_rows_fuse_and_match_the_one_row_driver(self):
        # Identical rows make union growth coincide with each row's own
        # discovery, so every fused row must replay the one-row CG run.
        network = braess_network()
        scenario = incident(network, 0)
        cases = [
            cg_case(network, uniform_policy(network), scenario=scenario)
            for _ in range(3)
        ]
        rows = run_cases(cases, flows_row_builder).rows
        single = simulate_with_column_generation(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            update_period=0.25,
            horizon=2.0,
            scenario=scenario,
        )
        expected = flows_row_builder(single.trajectory)
        assert len(rows) == 3
        for row in rows:
            assert row == expected

    def test_rows_with_different_periods_run_as_one_batch_and_match_serial(self):
        # On two-links-steep every row discovers the second link at phase 0,
        # after which the set is complete: the fused rows then run closed,
        # so union growth cannot make them differ from one-case runs.
        network = get_instance("two-links-steep")
        policy = uniform_policy(network)
        make = lambda: [
            cg_case(network, policy, update_period=0.25, horizon=2.0, steps_per_phase=5),
            cg_case(network, policy, update_period=0.5, horizon=3.0, steps_per_phase=4),
        ]
        with telemetry_session() as tele:
            fused = run_cases(make(), flows_row_builder).rows
        runs = [r for r in tele.tracer.records() if r["name"] == "engine_run"]
        assert [r["attrs"]["rows"] for r in runs] == [2]
        alone = [run_cases([case], flows_row_builder).rows[0] for case in make()]
        assert fused == alone
        assert [len(row["times"]) for row in fused] == [9, 7]
        assert all(len(row["flows"][0]) == network.num_paths for row in fused)

    def test_heterogeneous_scenarios_ride_along_per_row(self):
        network = grid_network(2, 3, num_commodities=2, seed=3)
        cases = [
            cg_case(network, uniform_policy(network)),
            cg_case(network, uniform_policy(network), scenario=incident(network, 0)),
            cg_case(network, uniform_policy(network), scenario=incident(network, 2)),
        ]
        rows = run_cases(cases, flows_row_builder).rows
        assert len(rows) == 3
        # The incident rows must actually diverge from the calm row.
        assert rows[0]["flows"] != rows[1]["flows"]
        assert rows[1]["flows"] != rows[2]["flows"]
        # All rows share one union path set, hence one flow dimension.
        widths = {len(row["flows"][0]) for row in rows}
        assert len(widths) == 1
