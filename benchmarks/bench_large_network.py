"""E10 -- convergence on a real road network (Sioux Falls, TNTP).

The large-network subsystem runs the stale-information dynamics on the
bundled Sioux Falls instance without ever enumerating its path sets: the
loader seeds one free-flow shortest path per OD pair, routes are discovered
by shortest-path column generation at every bulletin refresh, and the
edge-flow Frank--Wolfe solver provides the equilibrium reference through
the same all-or-nothing Dijkstra oracle.

For every (policy, T) cell the benchmark reports the number of bulletin
phases until the dynamics reach a small relative duality gap
(``TSTT/SPTT - 1``, the oracle certificate), how many route columns were
discovered on the way, and the wall-clock cost.  The replicator runs with a
widened exploration term -- proportional sampling alone assigns
newly-discovered (zero-flow) routes vanishing probability, so exploration
is exactly the mechanism that lets it adopt a column.

Run as a script (the CI smoke job does) or through pytest:

    PYTHONPATH=src python benchmarks/bench_large_network.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_large_network.py -q
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis import print_table
from repro.core import (
    ProportionalSampling,
    ReroutingPolicy,
    ScaledLinearMigration,
    UniformSampling,
)
from repro.instances import sioux_falls_network
from repro.largescale import (
    ActivePathSet,
    ShortestPathOracle,
    simulate_with_column_generation,
)
from repro.solvers import relative_duality_gap, solve_edge_flow_equilibrium
from repro.telemetry import telemetry_session
from repro.telemetry.bench import bench_timer
from repro.wardrop import FlowVector

POLICY_NAMES = ("uniform", "replicator")
GAP_TARGET = 0.03


def policy_builders(alpha: float):
    """The two competing policies at a congestion-scale smoothness ``alpha``.

    The canonical ``LinearMigration(l_max)`` uses the worst-case latency
    bound, which on BPR road networks is astronomic (every edge *could*
    carry the whole demand at ~1e8 minutes) -- migration probabilities of
    1e-6 would need horizons of ~1e7 to converge.  ``ScaledLinearMigration``
    is the same rule with a caller-chosen, still alpha-smooth slope, so the
    benchmark picks ``alpha`` from the instance's free-flow latency scale.
    The replicator keeps a widened exploration term: proportional sampling
    alone gives newly-discovered zero-flow columns vanishing probability.
    """
    return {
        "uniform": lambda network: ReroutingPolicy(
            UniformSampling(), ScaledLinearMigration(alpha), name="uniform+scaled"
        ),
        "replicator": lambda network: ReroutingPolicy(
            ProportionalSampling(exploration=0.05),
            ScaledLinearMigration(alpha),
            name="replicator+scaled",
        ),
    }


def final_relative_gap(network, oracle, flow) -> float:
    """Relative duality gap TSTT/SPTT - 1 of a restricted final flow.

    Thin adapter over the solver's certificate: expand the restricted edge
    flows to the oracle's full edge order, then reuse the one definition.
    """
    edge_flows = oracle.expand_edge_values(network, network.edge_flows(flow.values()))
    return relative_duality_gap(network, oracle, edge_flows)


def run_benchmark(smoke: bool = False) -> List[dict]:
    """Run the sweep and return the printed rows."""
    if smoke:
        build_instance = lambda: sioux_falls_network(max_od_pairs=40)  # noqa: E731
        periods = [0.05, 0.1]
        horizon, steps_per_phase = 16.0, 10
        label = "sioux-falls-mini (40 OD pairs)"
        instance = "sioux-falls-mini"
    else:
        build_instance = sioux_falls_network
        periods = [0.02, 0.05]
        horizon, steps_per_phase = 2.0, 10
        label = "sioux-falls (528 OD pairs)"
        instance = "sioux-falls"
    network = build_instance()
    oracle = ShortestPathOracle.for_network(network)

    with bench_timer(
        "bench_large_network", "edge-FW reference",
        engine="edge-fw", instance=instance,
    ) as solver_timer:
        reference = solve_edge_flow_equilibrium(network, tolerance=1e-4, oracle=oracle)
    solver_seconds = solver_timer.seconds

    alpha = 1.0 / (2.0 * float(np.max(oracle.free_flow_costs(network))))
    builders = policy_builders(alpha)
    rows: List[dict] = []
    for policy_name in POLICY_NAMES:
        build_policy = builders[policy_name]
        for period in periods:

            def gap_reached(times, flows, rows):
                """Stop once the flow on the current restricted network meets the gap."""
                flow = FlowVector(active.network, flows[0], validate=False)
                return np.array([final_relative_gap(active.network, oracle, flow) <= GAP_TARGET])

            with bench_timer(
                "bench_large_network", f"CG {policy_name} T={period:g}",
                engine="column-generation", instance=instance,
            ) as cg_timer:
                active = ActivePathSet.from_network(build_instance())
                result = simulate_with_column_generation(
                    active,
                    build_policy,
                    update_period=period,
                    horizon=horizon,
                    stop_when=gap_reached,
                )
            seconds = cg_timer.seconds
            trajectory = result.trajectory
            gap = final_relative_gap(result.network, oracle, result.final_flow)
            rows.append(
                {
                    "policy": policy_name,
                    "T": period,
                    "phases": len(trajectory.phases),
                    "converged": "yes" if gap <= GAP_TARGET else "no",
                    "rel_gap": gap,
                    "columns": result.total_columns_added,
                    "paths": result.network.num_paths,
                    "seconds": round(seconds, 2),
                    "phases/sec": round(len(trajectory.phases) / seconds, 1),
                }
            )
    rows.append(
        {
            "policy": "edge-flow FW (reference)",
            "phases": reference.iterations,
            "rel_gap": reference.relative_gap,
            "converged": "yes" if reference.converged else "no",
            "seconds": round(solver_seconds, 2),
        }
    )
    print_table(
        rows,
        title=(
            f"E10: column-generation dynamics on {label}, "
            f"gap target={GAP_TARGET}, alpha={alpha:.3g}, horizon={horizon}"
        ),
    )
    return rows


def test_large_network_smoke():
    """Pytest entry: the smoke sweep runs end to end and closes the gap."""
    rows = run_benchmark(smoke=True)
    dynamics = [row for row in rows if row["policy"] in POLICY_NAMES]
    assert len(dynamics) == 4
    for row in dynamics:
        # Column generation discovered routes and the gap shrank materially
        # from the all-on-seed-paths start.
        assert row["columns"] > 0
        assert row["rel_gap"] < 0.5
    # The uniform policy should actually reach the gap target in smoke mode.
    assert any(
        row["converged"] == "yes" for row in dynamics if row["policy"] == "uniform"
    )
    # The reference solver hit its certificate.
    assert rows[-1]["rel_gap"] < 1e-4


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast 40-OD-pair variant (CI-friendly, ~30s)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a telemetry session and write its JSONL trace here",
    )
    args = parser.parse_args(argv)
    if args.trace is not None:
        with telemetry_session(trace_path=args.trace):
            run_benchmark(smoke=args.smoke)
        print(f"wrote trace {args.trace}")
    else:
        run_benchmark(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
