"""E1 -- Section 3.2: best response under stale information oscillates.

Reproduces the paper's worked example: on the two-link instance with latency
``max{0, beta (x - 1/2)}`` the stale best-response dynamics started from
``f_1(0) = 1/(e^{-T}+1)`` cycles with period ``2T`` and sustains a phase-start
latency of exactly ``X = beta (1 - e^{-T}) / (2 e^{-T} + 2)``.  The harness
sweeps ``beta`` and ``T``, prints predicted vs measured amplitude, and checks
the ``T = O(eps/beta)`` threshold by inverting the formula.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import analyse_oscillation, phase_start_latency_trace, print_table
from repro.core import (
    max_update_period_for_latency,
    oscillation_amplitude,
    oscillation_fixed_point,
    simulate_best_response,
)
from repro.instances import oscillation_initial_flow, two_link_network

BETAS = [1.0, 2.0, 4.0, 8.0]
PERIODS = [0.05, 0.1, 0.25, 0.5, 1.0]


def run_oscillation(beta: float, period: float, phases: int = 40):
    network = two_link_network(beta=beta)
    return simulate_best_response(
        network,
        update_period=period,
        horizon=phases * period,
        initial_flow=oscillation_initial_flow(network, period),
    )


@pytest.mark.experiment("E1")
def test_oscillation_amplitude_table(report_header):
    rows = []
    for beta in BETAS:
        for period in PERIODS:
            trajectory = run_oscillation(beta, period)
            measured = float(np.mean(phase_start_latency_trace(trajectory)))
            predicted = oscillation_amplitude(beta, period)
            report = analyse_oscillation(trajectory)
            rows.append(
                {
                    "beta": beta,
                    "T": period,
                    "predicted_X": predicted,
                    "measured_X": measured,
                    "rel_error": abs(measured - predicted) / predicted,
                    "period_phases": report.period_phases,
                    "oscillating": report.is_oscillating,
                }
            )
    print_table(rows, title="E1: stale best response oscillation (Section 3.2)")
    for row in rows:
        assert row["oscillating"]
        assert row["rel_error"] < 1e-6
        assert row["period_phases"] == 2


@pytest.mark.experiment("E1")
def test_oscillation_threshold_table(report_header):
    # Largest T keeping the sustained latency below eps: T = O(eps/beta).
    rows = []
    epsilon = 0.05
    for beta in BETAS:
        threshold = max_update_period_for_latency(beta, epsilon)
        at_threshold = oscillation_amplitude(beta, threshold)
        above = oscillation_amplitude(beta, 2 * threshold)
        rows.append(
            {
                "beta": beta,
                "eps": epsilon,
                "T_max(pred)": threshold,
                "4*eps/beta": 4 * epsilon / beta,
                "X(T_max)": at_threshold,
                "X(2*T_max)": above,
            }
        )
    print_table(rows, title="E1: update-period threshold T = O(eps/beta)")
    for row in rows:
        assert row["X(T_max)"] == pytest.approx(epsilon, rel=1e-9)
        assert row["X(2*T_max)"] > epsilon


@pytest.mark.experiment("E1")
def test_benchmark_best_response_simulation(benchmark, report_header):
    result = benchmark(run_oscillation, 4.0, 0.25)
    assert len(result.phases) == 40


@pytest.mark.experiment("E1")
def test_fixed_point_is_period_two(report_header):
    rows = []
    for period in PERIODS:
        network = two_link_network(beta=2.0)
        trajectory = run_oscillation(2.0, period, phases=20)
        starts = trajectory.phase_starts[:, 0]
        rows.append(
            {
                "T": period,
                "f1_start(pred)": oscillation_fixed_point(period),
                "f1_start(measured)": float(starts[::2].mean()),
                "cycle_error": float(np.abs(starts[::2] - starts[0]).max()),
            }
        )
    print_table(rows, title="E1: oscillation fixed point f1(0) = 1/(exp(-T)+1)")
    for row in rows:
        assert row["cycle_error"] < 1e-9
        assert row["f1_start(measured)"] == pytest.approx(row["f1_start(pred)"], rel=1e-9)
