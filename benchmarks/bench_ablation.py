"""Ablations of the reproduction's own design choices (DESIGN.md section 4).

Three checks that the results reported in EXPERIMENTS.md are not artefacts of
simulation choices:

* **Dense recording**: a stale phase is solved exactly (``f expm(d Lambda)``)
  and a fresh one by error-controlled Dormand--Prince steps, so recording
  samples inside the phases (``record_every``) must leave stale phase ends
  bit-identical and move fresh ones by at most 1e-9; the fresh final flow
  must match scipy's DOP853 at rtol 1e-12 to 1e-9, and the Lemma 3 identity
  residual must stay at round-off (<= 1e-12).
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
from scipy.integrate import solve_ivp

from repro.analysis import phase_potential_stats, print_table
from repro.batch import simulate_batch
from repro.core import scaled_policy, simulate, uniform_policy
from repro.instances import braess_network, lopsided_flow, two_link_network
from repro.solvers import optimal_potential
from repro.wardrop import FlowVector, potential


def fresh_reference(network, policy, start, horizon):
    """Eq. (1) for uniform sampling and linear migration, solved by DOP853 at rtol 1e-12."""
    l_max = policy.migration.max_latency

    def field(_t, flow):
        latencies = network.path_latencies(flow)
        rates = np.clip((latencies[:, None] - latencies[None, :]) / l_max, 0.0, 1.0) / len(flow)
        return flow @ rates - flow * rates.sum(axis=1)

    solution = solve_ivp(field, (0.0, horizon), start, method="DOP853", rtol=1e-12, atol=1e-15)
    return solution.y[:, -1]


@pytest.mark.experiment("ablation")
@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
def test_dense_recording_does_not_change_phase_ends(report_header, stale):
    network = braess_network()
    policy = uniform_policy(network)
    period = policy.safe_update_period(network)
    horizon = 100 * period
    start = FlowVector.single_path(network, {0: 0})
    plain = simulate(
        network, policy, update_period=period, horizon=horizon, initial_flow=start, stale=stale
    )
    runs = {"boundaries": plain}
    for steps in [5, 20]:
        runs[f"every 1/{steps} of T"] = simulate_batch(
            network, policy, [period], horizon, initial_flows=[start], stale=stale,
            steps_per_phase=steps, record_every=1,
        ).trajectory(0)
    plain_ends = plain.phase_ends
    rows = []
    for recording, trajectory in runs.items():
        rows.append(
            {
                "recording": recording,
                "points": len(trajectory),
                "max_end_shift": float(np.abs(trajectory.phase_ends - plain_ends).max()),
                "final_potential": potential(trajectory.final_flow),
                "identity_residual": phase_potential_stats(trajectory).max_identity_residual,
            }
        )
    mode = "stale" if stale else "fresh"
    print_table(rows, title=f"Ablation: dense recording vs phase boundaries ({mode} rows)")
    assert [row["points"] for row in rows] == [101, 501, 2001]
    # A stale phase end never depends on its dense samples; a fresh row also
    # ends its steps at every sample, which moves its phase ends by no more
    # than the step control's tolerance.
    assert max(row["max_end_shift"] for row in rows) <= (0.0 if stale else 1e-9)
    assert max(row["identity_residual"] for row in rows) <= 1e-12
    if not stale:
        reference = fresh_reference(network, policy, start.values(), horizon)
        np.testing.assert_allclose(plain_ends[-1], reference, rtol=0, atol=1e-9)


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
    latencies = network.path_latencies(trajectory.phase_starts)
    largest = float((alpha * (latencies.max(axis=1) - latencies.min(axis=1))).max())
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
            initial_flow=FlowVector.single_path(network, {0: 0}),
        )

    trajectory = benchmark(run)
    assert len(trajectory.phases) == 30
