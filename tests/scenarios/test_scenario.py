"""Scenario compilation: modulations, incidents, caching and ModulatedLatency."""

import numpy as np
import pytest

from repro.instances import braess_network, pigou_network
from repro.scenarios import (
    CoefficientSchedule,
    ConstantSchedule,
    IncidentPlan,
    LinkIncident,
    PiecewiseConstantSchedule,
    Scenario,
)
from repro.wardrop.latency import BPRLatency, EdgeLatencyTable, LinearLatency, ModulatedLatency


class TestModulatedLatency:
    def test_value_derivative_integral(self):
        base = LinearLatency(2.0)
        wrapped = ModulatedLatency(base, gain=3.0, stretch=2.0, offset=1.0)
        # value = 3 * (2 * (2x)) + 1 = 12x + 1
        assert wrapped.value(0.5) == pytest.approx(7.0)
        assert wrapped.derivative(0.5) == pytest.approx(12.0)
        # integral of 12u + 1 on [0, 0.5] = 6 * 0.25 + 0.5
        assert wrapped.integral(0.5) == pytest.approx(2.0)
        assert wrapped.max_slope() == pytest.approx(12.0)

    def test_identity_is_float_transparent(self):
        base = BPRLatency(free_flow_time=3.7, capacity=0.13)
        wrapped = ModulatedLatency(base)
        xs = np.linspace(0.0, 1.0, 37)
        np.testing.assert_array_equal(wrapped.value(xs), base.value(xs))
        for x in xs:
            assert wrapped.value(float(x)) == base.value(float(x))

    def test_capacity_drop_equals_bpr_capacity_rescale(self):
        base = BPRLatency(free_flow_time=2.0, capacity=0.5, alpha=0.15, beta=4)
        dropped = ModulatedLatency(base, stretch=1.0 / 0.4)
        rescaled = BPRLatency(free_flow_time=2.0, capacity=0.5 * 0.4, alpha=0.15, beta=4)
        for x in np.linspace(0.0, 1.0, 21):
            assert dropped.value(float(x)) == pytest.approx(rescaled.value(float(x)))

    def test_latency_table_matches_scalar(self):
        bases = [LinearLatency(1.0), LinearLatency(2.0), LinearLatency(3.0)]
        functions = [
            ModulatedLatency(bases[0], gain=1.5, stretch=1.0, offset=0.0),
            ModulatedLatency(bases[1], gain=1.0, stretch=2.0, offset=0.5),
            ModulatedLatency(bases[2]),
        ]
        x = np.array([0.3, 0.6, 0.9])
        expected = np.array([f.value(v) for f, v in zip(functions, x)])
        np.testing.assert_array_equal(EdgeLatencyTable(functions).values(x), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModulatedLatency(LinearLatency(1.0), gain=-1.0)
        with pytest.raises(ValueError):
            ModulatedLatency(LinearLatency(1.0), stretch=0.0)


class TestIncidents:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            LinkIncident(("a", "b", 0), 2.0, 1.0)
        with pytest.raises(ValueError):
            LinkIncident(("a", "b", 0), 0.0, 1.0, capacity_factor=1.5)
        with pytest.raises(ValueError):
            LinkIncident(("a", "b", 0), 0.0, 1.0, capacity_factor=0.0, closure_penalty=0.0)

    def test_overlapping_incidents_compose(self):
        plan = IncidentPlan(
            [
                LinkIncident(("u", "v", 0), 0.0, 2.0, capacity_factor=0.5),
                LinkIncident(("u", "v", 0), 1.0, 3.0, capacity_factor=0.5),
                LinkIncident(("u", "v", 0), 1.0, 3.0, capacity_factor=0.0, closure_penalty=7.0),
            ]
        )
        gain, stretch, offset = plan.modulation_at(1.5)[("u", "v", 0)]
        assert stretch == pytest.approx(4.0)  # two 50% drops multiply
        assert offset == pytest.approx(7.0)
        assert plan.closed_edges(1.5) == frozenset({("u", "v", 0)})
        assert plan.closed_edges(0.5) == frozenset()
        assert plan.breakpoints(0.0, 5.0) == [1.0, 2.0, 3.0]


class TestScenario:
    def test_composed_modulation(self):
        scenario = Scenario(
            demand=PiecewiseConstantSchedule([1.0], [1.0, 1.2]),
            coefficients=CoefficientSchedule(ConstantSchedule(2.0), edges=[("s", "a", 0)]),
            incidents=[LinkIncident(("s", "a", 0), 0.5, 2.0, capacity_factor=0.5)],
        )
        modulation = scenario.modulation_at(1.5)
        assert modulation.demand == pytest.approx(1.2)
        gain, stretch, offset = modulation.triple_for(("s", "a", 0))
        assert gain == pytest.approx(2.0)
        assert stretch == pytest.approx(1.2 * 2.0)  # demand times capacity drop
        assert offset == 0.0
        # unaffected edge still carries the demand stretch
        assert modulation.triple_for(("a", "t", 0)) == (1.0, 1.2, 0.0)

    def test_breakpoints(self):
        edge_only = Scenario(
            incidents=[LinkIncident(("a", "b", 0), 1.0, 2.0, capacity_factor=0.5)]
        )
        assert edge_only.breakpoints(0.0, 5.0) == [1.0, 2.0]
        demand = Scenario(demand=PiecewiseConstantSchedule([1.0], [1.0, 2.0]))
        assert demand.breakpoints(0.0, 5.0) == [1.0]

    def test_network_at_caches_by_modulation(self):
        network = pigou_network(degree=1)
        scenario = Scenario(demand=PiecewiseConstantSchedule([1.0], [1.0, 1.5]))
        before = scenario.network_at(network, 0.0)
        assert before is network  # identity modulation, no wrapping
        first = scenario.network_at(network, 1.25)
        second = scenario.network_at(network, 7.5)  # same modulation value
        assert first is second
        flows = np.array([0.5, 0.5])
        stretched = first.path_latencies(flows)
        plain = network.path_latencies(flows)
        assert (stretched >= plain).all() and (stretched != plain).any()

    def test_unknown_incident_edge_is_rejected_at_run_start(self):
        """A typo'd edge must fail loudly, not run as a stationary no-op."""
        from repro.batch.engine import simulate_batch
        from repro.core import simulate, simulate_agents, uniform_policy

        network = braess_network()
        policy = uniform_policy(network)
        scenario = Scenario(
            incidents=[LinkIncident(("a", "nope", 0), 1.0, 2.0, capacity_factor=0.5)]
        )
        with pytest.raises(ValueError, match="not in the network"):
            simulate(network, policy, update_period=0.25, horizon=1.0, scenario=scenario)
        with pytest.raises(ValueError, match="not in the network"):
            simulate_agents(
                network, policy, num_agents=10, update_period=0.25, horizon=1.0,
                scenario=scenario,
            )
        with pytest.raises(ValueError, match="not in the network"):
            simulate_batch(
                network, policy, update_periods=[0.25], horizons=1.0,
                scenarios=[scenario],
            )

    def test_network_cache_is_bounded(self):
        from repro.scenarios.scenario import NETWORK_CACHE_LIMIT

        network = pigou_network(degree=1)
        # A ramp: every sample time is a distinct modulation.
        scenario = Scenario(
            demand=PiecewiseConstantSchedule(
                list(np.arange(1.0, 300.0)), [1.0 + 0.001 * k for k in range(300)]
            )
        )
        for t in np.arange(0.5, 299.0, 1.0):
            scenario.network_at(network, float(t))
        assert len(scenario._cache[network]) <= NETWORK_CACHE_LIMIT

    def test_effective_network_prices_closures(self):
        network = braess_network()
        scenario = Scenario(
            incidents=[
                LinkIncident(("a", "b", 0), 10.0, 20.0, capacity_factor=0.0, closure_penalty=10.0)
            ]
        )
        effective = scenario.network_at(network, 12.0)
        flows = np.full(network.num_paths, 1.0 / network.num_paths)
        latencies = dict(zip(network.paths.describe(), effective.path_latencies(flows)))
        assert latencies["s->a->b->t"] > 10.0
        assert latencies["s->a->t"] < 10.0
