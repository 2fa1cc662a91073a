"""Quickstart: route traffic adaptively on stale information and converge anyway.

This example walks through the whole public API in a few lines:

1. build a Wardrop instance (the paper's two-link network),
2. pick a smooth rerouting policy (the replicator: proportional sampling +
   linear migration),
3. ask the theory for the safe bulletin-board update period
   ``T* = 1/(4 D alpha beta)``,
4. simulate the stale-information dynamics and watch it converge, and
5. contrast it with best response, which oscillates at the same update period.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import analyse_oscillation, print_table
from repro.core import (
    oscillation_amplitude,
    replicator_policy,
    simulate,
    simulate_best_response,
)
from repro.instances import lopsided_flow, oscillation_initial_flow, two_link_network
from repro.wardrop import equilibrium_violations, potentials


def main() -> None:
    # 1. The instance: two parallel links with latency max{0, beta (x - 1/2)}.
    beta = 4.0
    network = two_link_network(beta=beta)
    print(network.describe())
    print()

    # 2. The policy: replicator dynamics (proportional sampling + linear migration).
    policy = replicator_policy(network)

    # 3. The safe update period from Lemma 4 of the paper.
    safe_period = policy.safe_update_period(network)
    print(f"smoothness alpha          = {policy.smoothness:.4g}")
    print(f"safe update period T*     = {safe_period:.4g}")
    print()

    # 4. Simulate under stale information with T = T*.
    start = lopsided_flow(network, 0.9)
    trajectory = simulate(
        network, policy, update_period=safe_period, horizon=40.0, initial_flow=start
    )
    # The trajectory is arrays: pick the recorded samples nearest these
    # times and evaluate each measure on them in one call.
    samples = [int(np.argmin(np.abs(trajectory.times - t))) for t in [0, 5, 10, 20, 40]]
    flows = trajectory.flows[samples]
    rows = [
        {
            "time": time,
            "flow_link_1": flow[0],
            "flow_link_2": flow[1],
            "potential": phi,
            "violation": violation,
        }
        for time, flow, phi, violation in zip(
            trajectory.times[samples],
            flows,
            potentials(network, flows),
            equilibrium_violations(network, flows),
        )
    ]
    print_table(rows, title="Replicator policy under stale information (T = T*)")

    # 5. Best response at a much larger update period oscillates forever.
    period = 0.5
    oscillating = simulate_best_response(
        network,
        update_period=period,
        horizon=30.0,
        initial_flow=oscillation_initial_flow(network, period),
    )
    report = analyse_oscillation(oscillating)
    print("Best response with stale information (T = 0.5):")
    print(f"  oscillating            = {report.is_oscillating}")
    print(f"  cycle length (phases)  = {report.period_phases}")
    print(f"  sustained latency      = {report.mean_phase_start_latency:.4g}")
    print(f"  paper's closed form X  = {oscillation_amplitude(beta, period):.4g}")


if __name__ == "__main__":
    main()
