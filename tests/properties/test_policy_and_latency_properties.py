"""Property-based tests for latency functions, policies and theory bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LinearMigration,
    ProportionalSampling,
    ScaledLinearMigration,
    SoftmaxSampling,
    UniformSampling,
    oscillation_amplitude,
    oscillation_fixed_point,
    safe_update_period,
    two_link_best_response_flow,
    uniform_policy,
    replicator_policy,
)
from repro.core.policy import PolicyStack, frozen_field
from repro.instances import identical_linear_links, two_link_network
from repro.wardrop import (
    AffineLatency,
    FlowVector,
    MonomialLatency,
    PolynomialLatency,
    ThresholdLatency,
)

PARALLEL = identical_linear_links(4)


class TestLatencyProperties:
    @given(slope=st.floats(min_value=0.0, max_value=10.0),
           intercept=st.floats(min_value=0.0, max_value=5.0),
           x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_affine_integral_derivative_consistency(self, slope, intercept, x):
        latency = AffineLatency(slope, intercept)
        # d/dx integral = value, checked by a small finite difference.
        step = 1e-6
        hi = min(1.0, x + step)
        lo = max(0.0, x - step)
        if hi > lo:
            numeric = (latency.integral(hi) - latency.integral(lo)) / (hi - lo)
            assert numeric == pytest.approx(latency.value(x), abs=1e-4, rel=1e-3)

    @given(coefficients=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=5),
           x=st.floats(min_value=0.0, max_value=1.0),
           y=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_polynomial_monotone(self, coefficients, x, y):
        latency = PolynomialLatency(coefficients)
        lo, hi = min(x, y), max(x, y)
        assert latency.value(lo) <= latency.value(hi) + 1e-9

    @given(coefficient=st.floats(min_value=0.01, max_value=5.0),
           degree=st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_monomial_slope_bound_is_tight_at_one(self, coefficient, degree):
        latency = MonomialLatency(coefficient, degree)
        assert latency.max_slope() == pytest.approx(coefficient * degree)

    @given(beta=st.floats(min_value=0.0, max_value=20.0),
           x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_threshold_latency_matches_max_form(self, beta, x):
        latency = ThresholdLatency(beta)
        assert latency.value(x) == pytest.approx(max(0.0, beta * (x - 0.5)), abs=1e-9)


class TestSamplingProperties:
    @given(shares=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_sampling_blocks_are_stochastic(self, shares):
        array = np.asarray(shares, dtype=float)
        total = array.sum()
        flow = FlowVector(PARALLEL, array / total if total > 0 else np.full(4, 0.25))
        blocks = PARALLEL.paths.blocks
        posted = blocks.gather(flow.values()[None]), blocks.gather(flow.path_latencies()[None])
        for rule in [UniformSampling(), ProportionalSampling(), SoftmaxSampling(2.0)]:
            sigma = rule.probabilities(blocks, *posted)
            assert (sigma >= 0).all()
            np.testing.assert_allclose(sigma.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


class TestMigrationProperties:
    @given(l_max=st.floats(min_value=0.1, max_value=10.0),
           high=st.floats(min_value=0.0, max_value=10.0),
           low=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_linear_migration_is_alpha_smooth_and_selfish(self, l_max, high, low):
        rule = LinearMigration(l_max)
        probability = rule.probability(high, low)
        assert 0.0 <= probability <= 1.0
        if high <= low:
            assert probability == 0.0
        else:
            assert probability <= (1.0 / l_max) * (high - low) + 1e-12

    @given(alpha=st.floats(min_value=0.01, max_value=50.0),
           gap=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_scaled_linear_respects_definition_2(self, alpha, gap):
        rule = ScaledLinearMigration(alpha)
        assert rule.probability(1.0 + gap, 1.0) <= alpha * gap + 1e-12


class TestPolicyProperties:
    @given(shares=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_growth_rates_conserve_demand_and_point_downhill(self, shares):
        array = np.asarray(shares, dtype=float)
        total = array.sum()
        flow = FlowVector(PARALLEL, array / total if total > 0 else np.full(4, 0.25))
        latencies = flow.path_latencies()
        blocks = PARALLEL.paths.blocks
        for policy in [uniform_policy(PARALLEL), replicator_policy(PARALLEL)]:
            tables = PolicyStack.of([policy]).tables(blocks, flow.values()[None], latencies[None])
            rates = frozen_field(blocks, *tables)(flow.values()[None])[0]
            assert np.sum(rates) == pytest.approx(0.0, abs=1e-10)
            # The instantaneous potential change sum_P l_P * df_P must be <= 0
            # (Theorem 2's selfishness argument).
            assert float(np.dot(latencies, rates)) <= 1e-10


class TestBoundProperties:
    @given(beta=st.floats(min_value=0.01, max_value=50.0),
           period=st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_oscillation_amplitude_below_half_beta(self, beta, period):
        amplitude = oscillation_amplitude(beta, period)
        assert 0.0 < amplitude < beta / 2.0

    @given(period=st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point_really_is_periodic(self, period):
        start = oscillation_fixed_point(period)
        assert 0.5 < start < 1.0
        assert two_link_best_response_flow(start, period, 2 * period) == pytest.approx(
            start, abs=1e-9
        )

    @given(beta=st.floats(min_value=0.01, max_value=20.0),
           alpha=st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_safe_period_formula(self, beta, alpha):
        network = two_link_network(beta=beta)
        assert safe_update_period(network, alpha) == pytest.approx(1.0 / (4.0 * alpha * beta))
