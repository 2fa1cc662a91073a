"""Ablations of the reproduction's own design choices (DESIGN.md section 4).

Three checks that the results reported in EXPERIMENTS.md are not artefacts of
simulation choices:

* **Integrator**: a stale phase is solved exactly (``f expm(d Lambda)``), so
  every method and step size must give bit-identical phase ends.  Fresh rows
  are still integrated: Euler vs RK4 and coarse vs fine step sizes must agree
  on the trajectory (the dynamics is smooth within a phase), and the Lemma 3
  identity residual must not grow as the step shrinks.
* **Migration cap**: the paper's alpha-smooth condition is an upper bound;
  capping the migration probability at 1 must not change the trajectory as
  long as ``alpha * l_max <= 1`` (the cap never binds).
* **Board refresh alignment**: refreshing the board at the phase start (the
  paper's model) vs simulating with twice as many half-length phases (an
  effectively fresher board) must not make convergence worse -- staleness only
  hurts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import phase_potential_stats, print_table
from repro.core import scaled_policy, simulate, uniform_policy
from repro.instances import braess_network, lopsided_flow, two_link_network
from repro.solvers import optimal_potential
from repro.wardrop import FlowVector, potential


@pytest.mark.experiment("ablation")
@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_integrator_choice_does_not_change_results(report_header, stale):
    network = braess_network()
    policy = uniform_policy(network)
    period = policy.safe_update_period(network)
    start = FlowVector.single_path(network, {0: 0})
    rows = []
    finals = {}
    ends = {}
    for method in ["euler", "rk4"]:
        for steps in [10, 50, 200]:
            trajectory = simulate(
                network, policy, update_period=period, horizon=100 * period,
                initial_flow=start, stale=stale, steps_per_phase=steps, method=method,
            )
            stats = phase_potential_stats(trajectory)
            finals[(method, steps)] = trajectory.final_flow.values()
            ends[(method, steps)] = np.array([p.end_flow.values() for p in trajectory.phases])
            rows.append(
                {
                    "method": method,
                    "steps/phase": steps,
                    "final_potential": potential(trajectory.final_flow),
                    "identity_residual": stats.max_identity_residual,
                    "lemma4_violations": stats.lemma4_violations,
                }
            )
    mode = "stale" if stale else "fresh"
    print_table(rows, title=f"Ablation: integrator method and step size ({mode} rows)")
    if stale:
        # No integrator touches a stale phase.
        for key, values in ends.items():
            assert np.array_equal(values, ends[("rk4", 200)]), key
        return
    reference = finals[("rk4", 200)]
    for key, values in finals.items():
        assert np.allclose(values, reference, atol=5e-3), key
    # Finer steps must not make the Lemma 3 residual worse.
    euler_coarse = next(r for r in rows if r["method"] == "euler" and r["steps/phase"] == 10)
    euler_fine = next(r for r in rows if r["method"] == "euler" and r["steps/phase"] == 200)
    assert euler_fine["identity_residual"] <= euler_coarse["identity_residual"] + 1e-12


@pytest.mark.experiment("ablation")
def test_migration_cap_never_binds_for_smooth_settings(report_header):
    # alpha chosen so alpha * l_max = 0.5 < 1: capping at 1 is a no-op and the
    # capped and uncapped rules produce identical trajectories.
    network = two_link_network(beta=4.0)
    alpha = 0.5 / network.max_latency()
    policy = scaled_policy(alpha)
    period = 0.1
    start = lopsided_flow(network, 0.9)
    trajectory = simulate(
        network, policy, update_period=period, horizon=20.0, initial_flow=start
    )
    # Largest migration probability actually used along the run.
    largest = 0.0
    for phase in trajectory.phases:
        latencies = phase.start_flow.path_latencies()
        gap = float(latencies.max() - latencies.min())
        largest = max(largest, alpha * gap)
    rows = [{
        "alpha": alpha,
        "alpha*l_max": alpha * network.max_latency(),
        "max migration probability used": largest,
        "cap binds": largest >= 1.0,
    }]
    print_table(rows, title="Ablation: the min(1, .) cap never binds when alpha*l_max <= 1")
    assert largest < 1.0


@pytest.mark.experiment("ablation")
def test_fresher_board_is_never_worse(report_header):
    # Halving the update period (double refresh rate) must not slow down
    # convergence measured at equal wall-clock times.
    network = two_link_network(beta=8.0)
    policy = uniform_policy(network)
    optimum = optimal_potential(network)
    start = lopsided_flow(network, 0.95)
    base_period = policy.safe_update_period(network)
    rows = []
    gaps = {}
    for factor in [1.0, 0.5, 0.25]:
        trajectory = simulate(
            network, policy, update_period=base_period * factor, horizon=20.0,
            initial_flow=start,
        )
        gap = potential(trajectory.final_flow) - optimum
        gaps[factor] = gap
        rows.append({"T/T*": factor, "final_gap": gap})
    print_table(rows, title="Ablation: refreshing the board more often never hurts")
    assert gaps[0.25] <= gaps[1.0] + 1e-9


@pytest.mark.experiment("ablation")
def test_benchmark_integration_cost(benchmark, report_header):
    network = braess_network()
    policy = uniform_policy(network)
    period = policy.safe_update_period(network)

    def run():
        return simulate(
            network, policy, update_period=period, horizon=30 * period,
            initial_flow=FlowVector.single_path(network, {0: 0}), steps_per_phase=50,
        )

    trajectory = benchmark(run)
    assert len(trajectory.phases) == 30
