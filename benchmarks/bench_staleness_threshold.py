"""E3 -- Lemma 4 / Corollary 5: the safe update period T* = 1/(4 D alpha beta).

Sweeps the ratio ``T / T*`` for a fixed migration rule.  At or below the safe
period the paper guarantees per-phase potential decrease (``Delta Phi <=
V/2 <= 0``) and convergence; far above it the guarantee is void and an
aggressive rule on a steep instance visibly fails to settle.  The harness
prints, per ratio, the Lemma 4 violation count, the final potential gap and
the tail oscillation amplitude.

All ratios share one network and one policy, so the runner fuses them into
one batched call on :mod:`repro.batch`; the result table is exported via
``SweepResult.to_csv`` / ``to_jsonl``.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    SweepCase,
    analyse_oscillation,
    phase_potential_stats,
    print_table,
)
from repro.core import scaled_policy
from repro.core.smoothness import safe_update_period
from repro.experiments import run_cases
from repro.instances import braess_network, lopsided_flow, two_link_network
from repro.solvers import optimal_potential
from repro.wardrop import FlowVector, potential

RATIOS = [0.25, 0.5, 1.0, 2.0, 8.0, 32.0]


def ratio_case(network, policy, alpha, ratio, start, horizon_phases=120, min_horizon=15.0):
    """Build the sweep case for one T/T* ratio (shared network and policy)."""
    safe = safe_update_period(network, alpha)
    period = ratio * safe
    # Give every ratio enough *simulated time* to settle: small ratios mean a
    # tiny update period, so a fixed phase count alone would end far too early.
    horizon = max(horizon_phases * period, min_horizon)
    steps_per_phase = 30 if horizon_phases * period >= min_horizon else 10
    return SweepCase(
        parameters={"T/T*": ratio, "T": period},
        network=network,
        policy=policy,
        update_period=period,
        horizon=horizon,
        initial_flow=start,
        steps_per_phase=steps_per_phase,
    )


def threshold_row_builder(optimum):
    """Report the Lemma 4 quantities for one trajectory of the sweep."""

    def build(trajectory):
        stats = phase_potential_stats(trajectory)
        oscillation = analyse_oscillation(trajectory)
        return {
            "lemma4_violations": stats.lemma4_violations,
            "max_phi_increase": stats.max_potential_increase,
            "final_gap": potential(trajectory.final_flow) - optimum,
            "tail_amplitude": oscillation.amplitude,
        }

    return build


@pytest.mark.experiment("E3")
def test_staleness_threshold_two_links(report_header, tmp_path):
    network = two_link_network(beta=8.0)
    alpha = 4.0  # aggressive: safe period is 1/(4*1*4*8) ~ 0.0078
    policy = scaled_policy(alpha)
    optimum = optimal_potential(network)
    start = lopsided_flow(network, 0.9)
    cases = [ratio_case(network, policy, alpha, ratio, start) for ratio in RATIOS]
    result = run_cases(cases, threshold_row_builder(optimum))
    result.to_csv(tmp_path / "staleness_two_links.csv")
    result.to_jsonl(tmp_path / "staleness_two_links.jsonl")
    print_table(result.rows, title="E3: staleness threshold sweep, two links (beta=8, alpha=4)")
    rows = result.rows
    safe_rows = [row for row in rows if row["T/T*"] <= 1.0]
    unsafe_rows = [row for row in rows if row["T/T*"] >= 8.0]
    for row in safe_rows:
        assert row["lemma4_violations"] == 0
        assert row["final_gap"] < 1e-2
    # Far beyond the threshold the dynamics is visibly worse (larger residual
    # oscillation / potential gap) than in the safe regime.
    worst_safe = max(row["tail_amplitude"] for row in safe_rows)
    worst_unsafe = max(row["tail_amplitude"] for row in unsafe_rows)
    assert worst_unsafe > worst_safe


@pytest.mark.experiment("E3")
def test_staleness_threshold_braess(report_header, tmp_path):
    network = braess_network()
    alpha = 2.0
    policy = scaled_policy(alpha)
    optimum = optimal_potential(network)
    start = FlowVector.single_path(network, {0: 0})
    cases = [
        ratio_case(network, policy, alpha, ratio, start, horizon_phases=200)
        for ratio in [0.5, 1.0, 4.0]
    ]

    def build(trajectory):
        stats = phase_potential_stats(trajectory)
        return {
            "lemma4_violations": stats.lemma4_violations,
            "final_gap": potential(trajectory.final_flow) - optimum,
        }

    result = run_cases(cases, build)
    result.to_csv(tmp_path / "staleness_braess.csv")
    result.to_jsonl(tmp_path / "staleness_braess.jsonl")
    print_table(result.rows, title="E3: staleness threshold sweep, Braess network (alpha=2)")
    for row in result.rows:
        if row["T/T*"] <= 1.0:
            assert row["lemma4_violations"] == 0


@pytest.mark.experiment("E3")
def test_benchmark_safe_period_run(benchmark, report_header):
    network = two_link_network(beta=8.0)
    policy = scaled_policy(4.0)
    start = lopsided_flow(network, 0.9)

    def run():
        case = ratio_case(network, policy, 4.0, 1.0, start, horizon_phases=40)
        builder = lambda t: {"lemma4_violations": phase_potential_stats(t).lemma4_violations}
        return run_cases([case], builder)

    result = benchmark(run)
    assert result.rows[0]["lemma4_violations"] == 0
