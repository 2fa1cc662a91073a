"""The agent engine's result is a fluid ``BatchResult`` plus its populations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchAgentResult, BatchResult, simulate_agent_batch
from repro.core import uniform_policy
from repro.core.agents import population_counts
from repro.instances import braess_network


@pytest.fixture(scope="module")
def braess():
    return braess_network()


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_assignments_slice_to_a_list_of_rows(braess, stale):
    result = simulate_agent_batch(
        braess, uniform_policy(braess), num_agents=[50, 60, 70], update_periods=0.2,
        horizons=1.0, seeds=[1, 2, 3], stale=stale,
    )
    rows = result.assignments[1:]
    assert isinstance(rows, list) and len(rows) == 2
    for index, row in enumerate(rows, start=1):
        assert np.array_equal(row, result.assignments[index])
        assert len(row) == result.num_agents[index]
        assert np.array_equal(np.bincount(row, minlength=3), result.final_counts[index])
    assert len(result.assignments[::2]) == 2
    assert result.assignments[3:] == []


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_final_counts_are_the_whole_final_state(braess, stale):
    """Assignments are the final counts spelled out in path order, and the
    last recorded flow is exactly the counts times the per-agent weights."""
    populations = [50, 60, 70]
    result = simulate_agent_batch(
        braess, uniform_policy(braess), num_agents=populations, update_periods=0.2,
        horizons=1.0, seeds=[1, 2, 3], stale=stale,
    )
    for row, population in enumerate(populations):
        counts = result.final_counts[row]
        _, weights = population_counts(braess, population)
        assert np.array_equal(result.assignments[row], np.repeat(np.arange(3), counts))
        assert np.array_equal(result.flow_matrix(row)[-1], counts * weights)


def test_agent_result_is_a_batch_result(braess):
    result = simulate_agent_batch(braess, uniform_policy(braess), [40, 80], 0.25, [1.0, 0.5])
    assert isinstance(result, BatchAgentResult) and isinstance(result, BatchResult)
    assert [result.num_phases(row) for row in range(2)] == [4, 2]
    assert not result.stopped_rows().any()
    np.testing.assert_array_equal(result.final_flows()[1], result.flow_matrix(1)[-1])
    assert result.trajectory(1).policy_name.endswith("(n=80)")
