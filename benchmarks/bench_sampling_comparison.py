"""E6 -- Uniform vs proportional sampling head-to-head.

The point of proportional sampling (Theorem 7) is to remove the ``|P|``
factor of the uniform-sampling bound (Theorem 6).  This benchmark runs both
policies on parallel-link families of growing size and reports the number of
weakly-bad update periods side by side: uniform sampling's count should grow
noticeably with the number of links while the replicator's stays flat (or
grows much more slowly), reproducing the qualitative comparison in
Section 1.1 of the paper.
"""

from __future__ import annotations

import pytest

from repro.analysis import count_bad_phases, print_table
from repro.core import replicator_policy, simulate, uniform_policy
from repro.instances import heterogeneous_affine_links
from repro.wardrop import FlowVector

LINK_COUNTS = [2, 4, 8, 16, 32]
DELTA = 0.15
EPSILON = 0.1


def run_policy(network, make_policy, horizon=150.0):
    policy = make_policy(network)
    period = min(policy.safe_update_period(network), 1.0)
    values = [0.05 / (network.num_paths - 1)] * network.num_paths
    values[0] = 0.95
    start = FlowVector(network, values)
    trajectory = simulate(
        network, policy, update_period=period, horizon=horizon,
        initial_flow=start,
    )
    return count_bad_phases(trajectory, DELTA, EPSILON)


@pytest.mark.experiment("E6")
def test_uniform_vs_proportional_scaling(report_header):
    rows = []
    for num_links in LINK_COUNTS:
        network = heterogeneous_affine_links(num_links, seed=11)
        uniform_summary = run_policy(network, uniform_policy)
        replicator_summary = run_policy(
            network, lambda n: replicator_policy(n, exploration=1e-3)
        )
        rows.append(
            {
                "links(|P|)": num_links,
                "uniform_weak_bad": uniform_summary.weak_bad_phases,
                "replicator_weak_bad": replicator_summary.weak_bad_phases,
                "uniform_bad": uniform_summary.bad_phases,
                "replicator_bad": replicator_summary.bad_phases,
            }
        )
    print_table(rows, title="E6: uniform vs proportional sampling (bad update periods)")
    # The paper's comparison: uniform sampling pays a |P| factor (Theorem 6)
    # that proportional sampling avoids (Theorem 7).  Empirically the uniform
    # policy's bad-phase count must therefore grow faster with the number of
    # links, and for the largest instance the replicator must win outright
    # (a crossover is expected -- on tiny instances the replicator can be
    # slower because it moves little flow off a nearly-pure state).
    smallest, largest = rows[0], rows[-1]
    uniform_growth = largest["uniform_bad"] / max(smallest["uniform_bad"], 1)
    replicator_growth = largest["replicator_bad"] / max(smallest["replicator_bad"], 1)
    assert uniform_growth > replicator_growth
    assert largest["replicator_bad"] < largest["uniform_bad"]


@pytest.mark.experiment("E6")
def test_benchmark_comparison_single_instance(benchmark, report_header):
    network = heterogeneous_affine_links(16, seed=11)
    summary = benchmark(run_policy, network, uniform_policy, 40.0)
    assert summary.total_phases > 0
