"""E8 -- Smoothed best response: interpolating between convergence and oscillation.

Section 2.2 of the paper notes that a softmax sampling rule
``sigma_PQ ∝ exp(-c l_Q)`` combined with a steep migration ramp approximates
best response while formally staying in the smooth class -- but with a large
smoothness parameter alpha, so the safe update period shrinks accordingly.
This benchmark fixes the update period and sweeps the aggressiveness (the
softmax concentration ``c`` and the ramp width): gentle parameters converge,
aggressive ones oscillate, exactly the trade-off the theory predicts.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyse_oscillation, print_table
from repro.core import simulate, smoothed_best_response_policy
from repro.core.smoothness import safe_update_period
from repro.instances import lopsided_flow, two_link_network

UPDATE_PERIOD = 0.25
BETA = 8.0
# (concentration c, ramp width) from provably-safe to nearly-best-response.
# The first setting has alpha = 1/8 so T* = 1/(4*1*(1/8)*8) = 0.25 = T exactly.
SETTINGS = [(1.0, 8.0), (1.0, 2.0), (4.0, 0.5), (16.0, 0.1), (64.0, 0.02), (256.0, 0.005)]


def run_smoothed(concentration, width, phases=120):
    network = two_link_network(beta=BETA)
    policy = smoothed_best_response_policy(concentration, width)
    return simulate(
        network, policy, update_period=UPDATE_PERIOD, horizon=phases * UPDATE_PERIOD,
        initial_flow=lopsided_flow(network, 0.9),
    )


@pytest.mark.experiment("E8")
def test_smoothed_best_response_sweep(report_header):
    network = two_link_network(beta=BETA)
    rows = []
    for concentration, width in SETTINGS:
        policy = smoothed_best_response_policy(concentration, width)
        alpha = policy.smoothness
        trajectory = run_smoothed(concentration, width)
        report = analyse_oscillation(trajectory)
        rows.append(
            {
                "c": concentration,
                "width": width,
                "alpha": alpha,
                "T*": safe_update_period(network, alpha),
                "T/T*": UPDATE_PERIOD / safe_update_period(network, alpha),
                "tail_amplitude": report.amplitude,
                "mean_start_latency": report.mean_phase_start_latency,
                "oscillating": report.is_oscillating,
            }
        )
    print_table(
        rows,
        title=f"E8: smoothed best response at fixed T={UPDATE_PERIOD} (beta={BETA})",
    )
    # Safe settings (T <= T*) must not oscillate; the most aggressive setting
    # (T far above T*) must oscillate with a much larger amplitude.
    safe = [row for row in rows if row["T/T*"] <= 1.0]
    unsafe = [row for row in rows if row["T/T*"] > 50.0]
    assert safe and unsafe
    for row in safe:
        assert not row["oscillating"]
    assert max(row["tail_amplitude"] for row in unsafe) > 10 * max(
        row["tail_amplitude"] for row in safe
    )


@pytest.mark.experiment("E8")
def test_benchmark_smoothed_best_response(benchmark, report_header):
    trajectory = benchmark(run_smoothed, 16.0, 0.1, 40)
    assert len(trajectory.phases) == 40
