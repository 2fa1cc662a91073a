"""Edge cases of the vectorised stopping conditions (`repro.batch.stopping`).

Covers the degenerate stopping patterns -- every row stops at the very first
phase boundary, no row ever stops -- a predicate returning the wrong mask
shape, and the ready-made predicates meeting a path set that column
generation grew.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import distance_stop, equilibrium_gap_stop, simulate_batch
from repro.core import uniform_policy
from repro.instances import braess_network
from repro.largescale import ActivePathSet, simulate_with_column_generation
from repro.wardrop import FlowVector


@pytest.fixture
def settled_batch(two_links):
    policy = uniform_policy(two_links)
    starts = [FlowVector(two_links, [0.7, 0.3]), FlowVector(two_links, [0.6, 0.4])]
    return two_links, policy, starts


def test_all_rows_stop_in_phase_zero(settled_batch):
    network, policy, starts = settled_batch
    # An infinitely forgiving tolerance fires at the first phase boundary.
    condition = distance_stop(np.full((2, 2), 0.5), tolerance=10.0)
    result = simulate_batch(
        network, policy, [0.1, 0.1], 5.0, initial_flows=starts, stop_when=condition
    )
    assert np.array_equal(result.stop_phases, [0, 0])
    assert result.stopped_rows().all()
    # The stopping phase itself is still recorded: initial point + one phase.
    assert np.array_equal(result.num_points, [2, 2])
    assert np.allclose(result.times[:, 1], 0.1)


def test_no_row_ever_stops(settled_batch):
    network, policy, starts = settled_batch
    # An unreachable target: the total demand is 1, so distance 0 to the
    # all-ones flow is impossible.
    condition = distance_stop(np.ones((2, 2)), tolerance=0.0)
    result = simulate_batch(
        network, policy, [0.1, 0.1], 2.0, initial_flows=starts, stop_when=condition
    )
    assert np.array_equal(result.stop_phases, [-1, -1])
    assert not result.stopped_rows().any()
    assert np.array_equal(result.num_points, [21, 21])


def test_stop_when_shape_mismatch_raises(settled_batch):
    network, policy, starts = settled_batch

    def bad_condition(times, flows, rows):
        return np.zeros(len(rows) + 1, dtype=bool)

    with pytest.raises(ValueError, match="stop_when returned shape"):
        simulate_batch(
            network, policy, [0.1, 0.1], 1.0, initial_flows=starts,
            stop_when=bad_condition,
        )


@pytest.mark.parametrize(
    "name, build",
    [
        ("equilibrium_gap_stop", lambda network: equilibrium_gap_stop(network, 1e-3)),
        (
            "distance_stop",
            lambda network: distance_stop([FlowVector.uniform(network)], tolerance=1e-3),
        ),
    ],
)
def test_predicates_name_a_grown_path_set(name, build):
    """A predicate built for braess's 3 paths meets the open run's grown set
    of 2 and says so, instead of failing inside numpy."""
    network = braess_network()
    with pytest.raises(
        ValueError,
        match=rf"{name} was built for 3 paths but got flows over 2: column generation grew",
    ):
        simulate_with_column_generation(
            ActivePathSet.from_network(network), uniform_policy, 0.2, 10.0,
            stop_when=build(network),
        )
