"""One ``stop_when`` form for every entry point.

Every engine takes the batch predicate ``stop_when(times, flows, rows)``,
and a one-replica run is a one-row batch evaluated with ``rows == [0]``.  So
one ``equilibrium_gap_stop`` or ``distance_stop`` object stops ``simulate``
(stale and fresh), ``simulate_agents``, ``simulate_with_column_generation``
and a ``SweepCase`` run through ``run_cases`` at the phase where it stops
row 0 of the matching batched run.  A shared network runs as the family of
``B`` references to it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import SweepCase
from repro.batch import (
    distance_stop,
    equilibrium_gap_stop,
    simulate_agent_batch,
    simulate_batch,
)
from repro.core import scaled_policy, simulate, simulate_agents
from repro.experiments import run_cases
from repro.instances import braess_network, two_link_network
from repro.largescale import ActivePathSet, simulate_with_column_generation
from repro.wardrop import FlowVector, NetworkFamily

NETWORK = two_link_network(beta=4.0)
POLICY = scaled_policy(0.5)
START = FlowVector(NETWORK, [0.9, 0.1])
PERIOD, HORIZON = 0.1, 40.0
AGENTS, SEED = 2000, 3

STOPS = {
    "equilibrium-gap": equilibrium_gap_stop(NETWORK, delta=0.05),
    "distance": distance_stop(np.array([[0.5, 0.5]]), tolerance=0.02),
}


def batch_stop_phase(stop, stale=True) -> int:
    """The phase at which ``stop`` freezes row 0 of a fluid batch."""
    result = simulate_batch(
        NETWORK, POLICY, [PERIOD], HORIZON, initial_flows=START, stale=stale, stop_when=stop
    )
    phase = int(result.stop_phases[0])
    assert 0 <= phase < HORIZON / PERIOD - 1, "the condition must fire before the horizon"
    return phase


@pytest.mark.parametrize("name", sorted(STOPS))
class TestOneStopPredicate:
    @pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
    def test_simulate(self, name, stale):
        stop = STOPS[name]
        trajectory = simulate(
            NETWORK, POLICY, PERIOD, HORIZON, initial_flow=START, stale=stale, stop_when=stop
        )
        assert len(trajectory.phases) - 1 == batch_stop_phase(stop, stale)

    @pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
    def test_simulate_agents(self, name, stale):
        stop = STOPS[name]
        trajectory = simulate_agents(
            NETWORK, POLICY, AGENTS, PERIOD, HORIZON, initial_flow=START, seed=SEED,
            stale=stale, stop_when=stop,
        )
        batch = simulate_agent_batch(
            NETWORK, POLICY, AGENTS, PERIOD, HORIZON, initial_flows=START, seeds=SEED,
            stale=stale, stop_when=stop,
        )
        assert batch.stop_phases[0] >= 0
        assert len(trajectory.phases) - 1 == batch.stop_phases[0]

    def test_simulate_with_column_generation(self, name):
        # A closed path set runs the fluid dynamics of simulate on the same paths.
        stop = STOPS[name]
        active = ActivePathSet.from_network(NETWORK, closed=True)
        result = simulate_with_column_generation(
            active, POLICY, PERIOD, HORIZON,
            initial_flow=FlowVector(active.network, START.values()), stop_when=stop,
        )
        assert len(result.trajectory.phases) - 1 == batch_stop_phase(stop)

    def test_sweep_case_through_run_cases(self, name):
        stop = STOPS[name]
        case = SweepCase(
            {}, NETWORK, POLICY, PERIOD, HORIZON, initial_flow=START, stop_when=stop
        )
        rows = run_cases([case], lambda trajectory: {"phases": len(trajectory.phases)}).rows
        assert rows[0]["phases"] - 1 == batch_stop_phase(stop)


def test_equilibrium_gap_stop_prices_a_network_as_its_one_network_family():
    network = braess_network()
    rng = np.random.default_rng(7)
    flows = rng.dirichlet(np.ones(network.num_paths), size=4)
    times, rows = rng.random(4), np.arange(4)
    for delta in (0.05, 0.3, 1.0):
        alone = equilibrium_gap_stop(network, delta)(times, flows, rows)
        family = equilibrium_gap_stop(NetworkFamily.replicate(network, 4), delta)
        np.testing.assert_array_equal(alone, family(times, flows, rows))


def test_a_shared_network_runs_as_a_one_network_family():
    network = braess_network()
    result = simulate_batch(network, scaled_policy(0.5), [0.1, 0.2, 0.4], 1.0)
    assert result.family.size == 3
    for row in range(3):
        assert result.family.member(row) is network
        assert result.trajectory(row).network is network
