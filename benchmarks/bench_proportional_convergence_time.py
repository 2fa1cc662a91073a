"""E5 -- Theorem 7: convergence time of proportional sampling (replicator).

Same measurement as E4 but for the replicator policy and the *weak*
(delta, eps)-equilibrium of Definition 4; the Theorem 7 bound
``O(1/(eps T) * (l_max/delta)^2)`` has no ``|P|`` factor, so the measured
counts should stay below a bound that does not grow with the number of links.
"""

from __future__ import annotations

import pytest

from repro.analysis import count_bad_phases, print_table
from repro.core import replicator_policy, simulate
from repro.core.bounds import proportional_convergence_bound
from repro.instances import heterogeneous_affine_links
from repro.wardrop import FlowVector

LINK_COUNTS = [2, 4, 8, 16]
DELTAS = [0.4, 0.2, 0.1]
EPSILON = 0.1


def run_replicator(network, horizon=120.0):
    policy = replicator_policy(network, exploration=1e-3)
    period = min(policy.safe_update_period(network), 1.0)
    # Start with most of the demand on one path but every path populated so
    # proportional sampling can discover alternatives.
    values = [0.05 / (network.num_paths - 1)] * network.num_paths
    values[0] = 0.95
    start = FlowVector(network, values)
    trajectory = simulate(
        network, policy, update_period=period, horizon=horizon,
        initial_flow=start,
    )
    return trajectory, period


@pytest.mark.experiment("E5")
def test_proportional_sampling_bad_phase_counts(report_header):
    rows = []
    for num_links in LINK_COUNTS:
        network = heterogeneous_affine_links(num_links, seed=7)
        trajectory, period = run_replicator(network)
        for delta in DELTAS:
            summary = count_bad_phases(trajectory, delta, EPSILON)
            bound = proportional_convergence_bound(network, period, delta, EPSILON)
            rows.append(
                {
                    "links(|P|)": num_links,
                    "delta": delta,
                    "T": period,
                    "weak_bad_phases": summary.weak_bad_phases,
                    "thm7_bound": bound,
                    "within_bound": summary.weak_bad_phases <= bound,
                    "total_phases": summary.total_phases,
                }
            )
    print_table(rows, title="E5: Theorem 7 -- proportional sampling convergence time")
    for row in rows:
        assert row["within_bound"]


@pytest.mark.experiment("E5")
def test_benchmark_replicator_run(benchmark, report_header):
    network = heterogeneous_affine_links(8, seed=7)
    trajectory, _ = benchmark(run_replicator, network, 30.0)
    assert len(trajectory.phases) > 0
