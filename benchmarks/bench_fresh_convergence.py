"""E2 -- Theorem 2: smooth policies converge under up-to-date information.

Runs uniform-sampling and proportional-sampling (replicator) policies with
the linear migration rule on several instances with continuously refreshed
information and reports the final potential gap, the final equilibrium
violation and whether the potential trace was monotone (as the Lyapunov
argument of Theorem 2 requires).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import print_table
from repro.core import replicator_policy, simulate, uniform_policy
from repro.instances import braess_network, get_instance, pigou_network, two_link_network
from repro.solvers import optimal_potential
from repro.wardrop import FlowVector, equilibrium_violation, potential, unsatisfied_volume

INSTANCES = {
    "two-links(beta=4)": lambda: two_link_network(beta=4.0),
    "pigou-quadratic": lambda: pigou_network(degree=2),
    "braess": braess_network,
    "grid-3x3": lambda: get_instance("grid-3x3"),
}

POLICIES = {
    "uniform+linear": uniform_policy,
    "replicator": replicator_policy,
}


def run_fresh(network, make_policy, horizon=60.0):
    policy = make_policy(network)
    # Start far from equilibrium but with every path slightly populated, so
    # that proportional sampling can discover alternatives (the paper requires
    # sigma_PQ > 0 for exactly this reason).
    lopsided = FlowVector.single_path(network, {i: 0 for i in range(network.num_commodities)})
    start = lopsided.blend(FlowVector.uniform(network), 0.05)
    return simulate(
        network, policy, update_period=0.05, horizon=horizon,
        initial_flow=start, stale=False,
    )


@pytest.mark.experiment("E2")
def test_fresh_information_convergence_table(report_header):
    rows = []
    for instance_name, make_instance in INSTANCES.items():
        network = make_instance()
        optimum = optimal_potential(network)
        for policy_name, make_policy in POLICIES.items():
            trajectory = run_fresh(network, make_policy)
            trace = trajectory.potential_trace()
            rows.append(
                {
                    "instance": instance_name,
                    "policy": policy_name,
                    "final_gap": potential(trajectory.final_flow) - optimum,
                    "final_violation": equilibrium_violation(trajectory.final_flow),
                    "unsatisfied(0.1)": unsatisfied_volume(trajectory.final_flow, 0.1),
                    "monotone_potential": bool(np.all(np.diff(trace) <= 1e-8)),
                }
            )
    print_table(rows, title="E2: convergence under up-to-date information (Theorem 2)")
    for row in rows:
        assert row["monotone_potential"]
        assert row["final_gap"] < 0.05
        # A vanishing fraction of agents may still sit on expensive paths
        # (convergence is asymptotic); the volume of noticeably unsatisfied
        # agents must be essentially zero.
        assert row["unsatisfied(0.1)"] < 0.05


@pytest.mark.experiment("E2")
def test_benchmark_fresh_simulation(benchmark, report_header):
    network = braess_network()
    result = benchmark(run_fresh, network, uniform_policy, 10.0)
    assert len(result.phases) > 0
