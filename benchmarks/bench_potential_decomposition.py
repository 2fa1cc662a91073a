"""E7 -- Fig. 1 / Lemma 3: the potential decomposition along simulated phases.

Lemma 3 states the exact identity ``Phi(f) - Phi(f_hat) = sum_e U_e + V`` for
every bulletin-board phase; Lemma 4 adds that, for an alpha-smooth policy with
``T <= T*``, the error terms eat at most half of the virtual gain so
``Delta Phi <= V / 2``.  This benchmark verifies both statements phase by
phase on instances with overlapping paths (where the decomposition is
non-trivial) and reports the worst identity residual and the worst ratio
``Delta Phi / V``.
"""

from __future__ import annotations

import pytest

from repro.analysis import print_table
from repro.core import simulate, uniform_policy
from repro.instances import braess_network, get_instance, grid_network
from repro.wardrop import FlowVector, decompose_phase

INSTANCES = {
    "braess": braess_network,
    "grid-3x3": lambda: grid_network(3, 3, seed=3),
    "random-layered": lambda: get_instance("random-layered"),
}


def run_and_decompose(network, phases=100):
    policy = uniform_policy(network)
    period = policy.safe_update_period(network)
    start = FlowVector.single_path(network, {i: 0 for i in range(network.num_commodities)})
    trajectory = simulate(
        network, policy, update_period=period, horizon=phases * period,
        initial_flow=start,
    )
    return [
        decompose_phase(
            FlowVector(network, start, validate=False), FlowVector(network, end, validate=False)
        )
        for start, end in zip(trajectory.phase_starts, trajectory.phase_ends)
    ]


@pytest.mark.experiment("E7")
def test_lemma3_identity_and_lemma4_inequality(report_header):
    rows = []
    for name, make_instance in INSTANCES.items():
        network = make_instance()
        decompositions = run_and_decompose(network)
        worst_residual = max(abs(d.identity_residual) for d in decompositions)
        ratios = [
            d.delta_phi / d.virtual_gain
            for d in decompositions
            if d.virtual_gain < -1e-12
        ]
        violations = sum(1 for d in decompositions if not d.satisfies_lemma4())
        rows.append(
            {
                "instance": name,
                "phases": len(decompositions),
                "max_identity_residual": worst_residual,
                "lemma4_violations": violations,
                "min_dPhi/V": min(ratios) if ratios else 1.0,
            }
        )
    print_table(
        rows,
        title="E7: Lemma 3 identity and Lemma 4 inequality along simulated phases",
    )
    for row in rows:
        assert row["max_identity_residual"] < 1e-8
        assert row["lemma4_violations"] == 0
        # delta Phi / V >= 1/2 means the realised improvement is at least half
        # of the virtual improvement (both are negative).
        assert row["min_dPhi/V"] >= 0.5 - 1e-9


@pytest.mark.experiment("E7")
def test_benchmark_decomposition(benchmark, report_header):
    network = braess_network()
    decompositions = benchmark(run_and_decompose, network, 30)
    assert len(decompositions) == 30
