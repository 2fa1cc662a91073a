"""E4 -- Theorem 6: convergence time of uniform sampling + linear migration.

Measures, on parallel-link families of growing size, the number of update
periods that do *not* start at a (delta, eps)-equilibrium and compares it
with the Theorem 6 bound ``O(|P| / (eps T) * (l_max/delta)^2)``.  The measured
count must stay below the bound, and its growth with ``|P|`` and ``1/delta^2``
should be visible.

The sweep runs through the experiment runner: each link count is its own
network, so the cases are heterogeneous and each runs on its own, while the
per-delta evaluation happens in a multi-row builder on the single trajectory
(one simulation per network, one result row per delta).  The table is
exported via ``SweepResult.to_csv`` / ``to_jsonl``.
"""

from __future__ import annotations

import pytest

from repro.analysis import SweepCase, count_bad_phases, print_table
from repro.core import uniform_policy
from repro.core.bounds import uniform_convergence_bound
from repro.experiments import run_cases
from repro.instances import heterogeneous_affine_links
from repro.wardrop import FlowVector

LINK_COUNTS = [2, 4, 8, 16]
DELTAS = [0.4, 0.2, 0.1]
EPSILON = 0.1


def uniform_case(num_links, horizon=120.0):
    """Build the sweep case for one parallel-link family size."""
    network = heterogeneous_affine_links(num_links, seed=7)
    policy = uniform_policy(network)
    period = min(policy.safe_update_period(network), 1.0)
    start = FlowVector.single_path(network, {0: 0})
    return SweepCase(
        parameters={"links(|P|)": num_links},
        network=network,
        policy=policy,
        update_period=period,
        horizon=horizon,
        initial_flow=start,
        steps_per_phase=20,
    )


def per_delta_rows(trajectory):
    """Return one row per target delta for a single uniform-sampling run."""
    rows = []
    for delta in DELTAS:
        summary = count_bad_phases(trajectory, delta, EPSILON)
        bound = uniform_convergence_bound(
            trajectory.network, trajectory.update_period, delta, EPSILON
        )
        rows.append(
            {
                "delta": delta,
                "T": trajectory.update_period,
                "bad_phases": summary.bad_phases,
                "thm6_bound": bound,
                "within_bound": summary.bad_phases <= bound,
                "total_phases": summary.total_phases,
            }
        )
    return rows


@pytest.mark.experiment("E4")
def test_uniform_sampling_bad_phase_counts(report_header, tmp_path):
    cases = [uniform_case(num_links) for num_links in LINK_COUNTS]
    result = run_cases(cases, per_delta_rows)
    result.to_csv(tmp_path / "uniform_convergence.csv")
    result.to_jsonl(tmp_path / "uniform_convergence.jsonl")
    print_table(result.rows, title="E4: Theorem 6 -- uniform sampling convergence time")
    for row in result.rows:
        assert row["within_bound"]
    # Tightening delta by 2x must not shrink the bad-phase count: the
    # (delta, eps) requirement is strictly harder to satisfy.
    for num_links in LINK_COUNTS:
        counts = [row["bad_phases"] for row in result.rows if row["links(|P|)"] == num_links]
        assert counts == sorted(counts)


@pytest.mark.experiment("E4")
def test_benchmark_uniform_policy_run(benchmark, report_header):
    def run():
        return run_cases([uniform_case(8, horizon=30.0)], per_delta_rows)

    result = benchmark(run)
    assert result.rows[0]["total_phases"] > 0
