"""Convergence comparison: uniform vs proportional sampling (Theorems 6 and 7).

The paper gives two concrete smooth policies and bounds their convergence
time to approximate equilibria.  This example runs both on a family of
parallel-link networks of growing size and prints, per instance,

* the number of update periods not starting at a (delta, eps)-equilibrium,
* the corresponding theorem bound, and
* the wall-clock-free "time to equilibrium" in simulated time units,

showing the qualitative difference the paper predicts: the uniform-sampling
count grows with the number of paths, the replicator's does not.

Run with::

    python examples/convergence_comparison.py
"""

from __future__ import annotations

from repro.analysis import count_bad_phases, print_table, time_to_approximate_equilibrium
from repro.core import replicator_policy, simulate, uniform_policy
from repro.core.bounds import proportional_convergence_bound, uniform_convergence_bound
from repro.instances import heterogeneous_affine_links
from repro.wardrop import FlowVector

DELTA = 0.2
EPSILON = 0.1
LINK_COUNTS = [2, 4, 8, 16]


def populated_start(network) -> FlowVector:
    """Most of the demand on one link, a sliver everywhere else."""
    values = [0.05 / (network.num_paths - 1)] * network.num_paths
    values[0] = 0.95
    return FlowVector(network, values)


def run(network, policy, horizon=120.0):
    period = min(policy.safe_update_period(network), 1.0)
    trajectory = simulate(
        network,
        policy,
        update_period=period,
        horizon=horizon,
        initial_flow=populated_start(network),
    )
    return trajectory, period


def main() -> None:
    rows = []
    for num_links in LINK_COUNTS:
        network = heterogeneous_affine_links(num_links, seed=11)
        for name, make_policy in [
            ("uniform", uniform_policy),
            ("replicator", lambda n: replicator_policy(n, exploration=1e-3)),
        ]:
            policy = make_policy(network)
            trajectory, period = run(network, policy)
            summary = count_bad_phases(trajectory, DELTA, EPSILON)
            if name == "uniform":
                bound = uniform_convergence_bound(network, period, DELTA, EPSILON)
                bad = summary.bad_phases
            else:
                bound = proportional_convergence_bound(network, period, DELTA, EPSILON)
                bad = summary.weak_bad_phases
            rows.append(
                {
                    "links": num_links,
                    "policy": name,
                    "T": period,
                    "bad_phases": bad,
                    "theorem_bound": bound,
                    "time_to_eq": time_to_approximate_equilibrium(
                        trajectory, DELTA, EPSILON, weak=(name == "replicator")
                    ),
                }
            )
    print_table(
        rows,
        title=(
            f"Update periods outside a (delta={DELTA}, eps={EPSILON})-equilibrium "
            "vs the Theorem 6/7 bounds"
        ),
    )
    print(
        "Reading the table: the measured counts stay well below the bounds; the\n"
        "uniform policy's count grows as links are added while the replicator's\n"
        "stays flat -- the |P| factor that separates Theorem 6 from Theorem 7."
    )


if __name__ == "__main__":
    main()
