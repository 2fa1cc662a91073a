"""Regression: ``initial_flow or default`` silently replaced falsy flows.

``FlowVector`` defines ``__len__``, so ``bool(flow)`` is ``len(flow) > 0``.
The drivers used ``initial_flow or FlowVector.uniform(...)``, which would
swap a falsy (zero-length-reporting) flow for the uniform default instead of
using it -- or, for a flow from the wrong network, instead of rejecting it.
The drivers now test ``is None`` explicitly; these tests pin that down with
a flow vector whose ``__len__`` lies."""

import numpy as np

from repro.core import simulate, simulate_best_response, uniform_policy
from repro.instances import braess_network
from repro.largescale import ActivePathSet, simulate_with_column_generation
from repro.wardrop import FlowVector


class _FalsyFlow(FlowVector):
    """A valid flow vector that reports length 0 (and is therefore falsy)."""

    def __len__(self):
        return 0


def falsy_single_path_flow(network):
    flow = FlowVector.single_path(network, {0: 1})
    falsy = _FalsyFlow(network, flow.values())
    assert not falsy  # the precondition the regression is about
    return falsy


def test_simulator_uses_a_falsy_initial_flow():
    network = braess_network()
    start = falsy_single_path_flow(network)
    trajectory = simulate(
        network, uniform_policy(network), update_period=0.25, horizon=0.5,
        initial_flow=start,
    )
    assert np.array_equal(trajectory.flows[0], start.values())


def test_best_response_uses_a_falsy_initial_flow():
    network = braess_network()
    start = falsy_single_path_flow(network)
    trajectory = simulate_best_response(
        network, update_period=0.25, horizon=0.5, initial_flow=start
    )
    assert np.array_equal(trajectory.flows[0], start.values())


def test_column_generation_uses_a_falsy_initial_flow():
    network = braess_network()
    active = ActivePathSet.from_network(network, closed=True)
    start = falsy_single_path_flow(active.network)
    result = simulate_with_column_generation(
        active, uniform_policy(network), update_period=0.25, horizon=0.5,
        initial_flow=start,
    )
    assert np.array_equal(result.trajectory.flows[0], start.values())
