"""Scenario-aware column generation: forced refreshes, evictions, detours."""

import numpy as np
import pytest

from repro.core import uniform_policy
from repro.instances import braess_network, get_instance
from repro.largescale import ActivePathSet, simulate_with_column_generation
from repro.scenarios import LinkIncident, Scenario, get_scenario


class TestClosureInvalidation:
    def test_braess_closure_evicts_and_reseeds(self):
        """The seed path runs over the shortcut; closing it must (1) move the
        flow off the crossing column in the closure instant and (2) discover a
        detour column in the same refresh."""
        network = braess_network()
        scenario = get_scenario("braess-closure", network)
        result = simulate_with_column_generation(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            update_period=0.5,
            horizon=25.0,
            scenario=scenario,
        )
        # phase 20 starts at t = 10.0, the closure onset
        assert result.eviction_events, "closure must evict crossing columns"
        eviction_phase, moved = result.eviction_events[0]
        assert eviction_phase == 20
        assert moved == pytest.approx(1.0)  # the whole demand sat on the shortcut
        descriptions = result.network.paths.describe()
        assert "s->a->t" in descriptions or "s->b->t" in descriptions
        # During the closure the shortcut path must stay (essentially) empty.
        shortcut = descriptions.index("s->a->b->t")
        trajectory = result.trajectory
        during = (10.0 < trajectory.times) & (trajectory.times <= 20.0)
        assert during.any()
        assert np.all(trajectory.flows[during, shortcut] < 0.05)

    def test_invalidate_columns_lists_crossing_paths(self):
        network = braess_network()
        active = ActivePathSet.from_network(network, closed=True)
        restricted = active.network
        crossing = active.invalidate_columns(restricted, {("a", "b", 0)})
        descriptions = restricted.paths.describe()
        assert [descriptions[i] for i in crossing] == ["s->a->b->t"]
        assert active.invalidate_columns(restricted, set()) == []

    def test_capacity_drop_triggers_forced_refresh(self):
        """A scenario change forces a refresh even when the board schedule
        would not refresh -- the growth/eviction machinery reacts in the
        incident's phase, not one phase late."""
        network = get_instance("sioux-falls-mini")
        scenario = get_scenario("sioux-falls-incident", network)
        result = simulate_with_column_generation(
            ActivePathSet.from_network(network),
            lambda net: uniform_policy(net, max_latency=100.0),
            update_period=0.5,
            horizon=6.0,
            scenario=scenario,
        )
        # The incident starts at t=4.0 (phase 8): the drop makes the loaded
        # link expensive, so new columns appear at or after the onset.
        growth_phases = [phase for phase, _ in result.growth_events]
        assert any(phase >= 8 for phase in growth_phases)

    def test_stationary_scenario_matches_plain_run(self):
        network = braess_network()
        scenario = Scenario(
            incidents=[
                LinkIncident(("a", "b", 0), 50.0, 60.0, capacity_factor=0.5)
            ]
        )  # incident entirely beyond the horizon
        plain = simulate_with_column_generation(
            ActivePathSet.from_network(network), uniform_policy(network),
            update_period=0.5, horizon=5.0,
        )
        wrapped = simulate_with_column_generation(
            ActivePathSet.from_network(network), uniform_policy(network),
            update_period=0.5, horizon=5.0, scenario=scenario,
        )
        np.testing.assert_array_equal(plain.trajectory.flows, wrapped.trajectory.flows)
        assert wrapped.eviction_events == []
