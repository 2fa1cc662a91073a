"""Unit tests for oscillation detection, table rendering and the sweep harness."""

from __future__ import annotations

import pytest

from repro.analysis import (
    SweepCase,
    analyse_oscillation,
    cartesian,
    convergence_row_builder,
    format_value,
    phase_start_latency_trace,
    print_table,
    render_comparison,
    render_table,
)
from repro.core import oscillation_amplitude, replicator_policy, simulate_best_response, uniform_policy
from repro.experiments import run_cases
from repro.instances import lopsided_flow, oscillation_initial_flow, two_link_network
from trajectory_arrays import boundary_trajectory


class TestOscillationDetection:
    def test_best_response_detected_as_oscillating(self):
        beta, period = 4.0, 0.5
        network = two_link_network(beta=beta)
        trajectory = simulate_best_response(
            network, update_period=period, horizon=30.0,
            initial_flow=oscillation_initial_flow(network, period),
        )
        report = analyse_oscillation(trajectory)
        assert report.is_oscillating
        assert report.period_phases == 2
        assert report.mean_phase_start_latency == pytest.approx(
            oscillation_amplitude(beta, period), rel=1e-6
        )

    def test_converged_run_not_flagged(self, two_links_steep):
        policy = replicator_policy(two_links_steep)
        period = policy.safe_update_period(two_links_steep)
        from repro.core import simulate

        trajectory = simulate(
            two_links_steep, policy, update_period=period, horizon=60.0,
            initial_flow=lopsided_flow(two_links_steep, 0.9),
        )
        report = analyse_oscillation(trajectory, window=20)
        assert not report.is_oscillating

    def test_phase_start_latency_trace_length(self, two_links):
        trajectory = simulate_best_response(
            two_links, update_period=0.5, horizon=5.0,
            initial_flow=oscillation_initial_flow(two_links, 0.5),
        )
        trace = phase_start_latency_trace(trajectory)
        assert len(trace) == len(trajectory.phases)

    def test_empty_trajectory_rejected(self, two_links):
        with pytest.raises(ValueError):
            analyse_oscillation(boundary_trajectory(two_links, [], []))


class TestReporting:
    def test_format_value_variants(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value(123456.0) == "1.235e+05"
        assert format_value("text") == "text"

    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}]
        text = render_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_print_table_smoke(self, capsys):
        print_table([{"x": 1}])
        assert "x" in capsys.readouterr().out

    def test_render_comparison(self):
        text = render_comparison("X", predicted=2.0, measured=1.0, note="half")
        assert "predicted=2" in text
        assert "measured=1" in text
        assert "half" in text


class TestSweeps:
    def test_cartesian_product(self):
        combos = cartesian(a=[1, 2], b=["x", "y", "z"])
        assert len(combos) == 6
        assert {"a": 1, "b": "x"} in combos

    def test_run_cases_collects_rows(self, two_links):
        policy = uniform_policy(two_links)
        cases = [
            SweepCase(
                parameters={"T": period},
                network=two_links,
                policy=policy,
                update_period=period,
                horizon=2.0,
                initial_flow=lopsided_flow(two_links, 0.9),
            )
            for period in [0.1, 0.2]
        ]
        result = run_cases(cases, convergence_row_builder(delta=0.1, epsilon=0.1))
        assert len(result) == 2
        assert result.column("T") == [0.1, 0.2]
        assert all("bad_phases" in row for row in result.rows)
