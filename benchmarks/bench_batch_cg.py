"""E12 -- batched column generation at city scale (synthetic city grid).

A >= 32-row ensemble runs the stale-information dynamics with *column
generation* on the synthetic city network (16x16 street grid with arterial
corridors, 960 directed links) while a link incident (a capacity drop on the
busiest arterial at equilibrium) hits at a different time in every row --
one :class:`~repro.scenarios.scenario.Scenario` per row, all driven as **one**
:func:`~repro.largescale.batch_columns.simulate_with_column_generation_batch`
call.  The rows start from the TNTP loader's one-free-flow-path seeding and
grow the shared restricted set by the union of their discoveries.  The
benchmark verifies three things:

* **certificates** -- every row ends with an oracle relative-duality-gap
  certificate ``<= 1e-3`` in its final effective environment: the batched
  driver does not merely run, it documents per row that it settled at a
  Wardrop equilibrium of the full 960-link network,
* **exactness** -- on the grown-and-frozen (closed) path set, batched CG
  rows are bit-identical to their one-row
  :func:`~repro.largescale.columns.simulate_with_column_generation` runs,
* **throughput** -- the single batched call clearly outruns the equivalent
  loop of one-row column-generation runs.

Each row's final gap is emitted as a ``repro-bench/1`` record carrying
``method="cg-rowNN"`` and ``gap``, so ``repro report --bench`` renders the
per-row duality-gap table straight from the records file.

Run as a script (the CI smoke job does) or through pytest:

    PYTHONPATH=src python benchmarks/bench_batch_cg.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_batch_cg.py -q
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis import print_table
from repro.telemetry import telemetry_session
from repro.telemetry.bench import BENCH_SCHEMA, bench_timer, emit_record
from repro.core import ReroutingPolicy, ScaledLinearMigration, UniformSampling
from repro.instances import synthetic_city_network
from repro.largescale import ActivePathSet, ShortestPathOracle
from repro.largescale.batch_columns import simulate_with_column_generation_batch
from repro.largescale.columns import simulate_with_column_generation
from repro.scenarios import LinkIncident, Scenario
from repro.solvers import solve_edge_flow_equilibrium
from repro.solvers.edge_frank_wolfe import relative_duality_gap

GAP_TARGET = 1e-3
INCIDENT_FACTOR = 0.4
# Raw demand per OD pair: side streets run at a volume/capacity ratio high
# enough that congestion moves the shortest paths (so rows actually discover
# detour columns) while the dynamics still certify <= GAP_TARGET in the
# benchmark horizon.  The instance-registry default (600) is milder.
CITY_DEMAND = 1200.0
# Migration smoothness in units of the max free-flow cost; 4x settles within
# the horizon at this congestion level and stays a valid probability.
ALPHA_SCALE = 4.0


def incident_scenarios(edge, starts, duration: float) -> List[Scenario]:
    return [
        Scenario(
            name=f"incident@{start:g}",
            incidents=[
                LinkIncident(
                    edge, float(start), float(start) + duration,
                    capacity_factor=INCIDENT_FACTOR,
                )
            ],
        )
        for start in starts
    ]


def run_benchmark(smoke: bool = False, scalar_rows: Optional[int] = None) -> dict:
    if smoke:
        blocks, od_pairs, batch = 8, 6, 8
        horizon, period, steps = 10.0, 0.25, 5
        duration, first_start, last_start = 1.0, 1.0, 2.5
    else:
        blocks, od_pairs, batch = 16, 12, 32
        horizon, period, steps = 16.0, 0.25, 10
        duration, first_start, last_start = 2.0, 2.0, 5.0
    if scalar_rows is None:
        scalar_rows = min(batch, 4)
    instance_label = "city-grid-incident" if not smoke else "city-grid-mini-incident"

    network = synthetic_city_network(
        blocks=blocks, od_pairs=od_pairs, demand=CITY_DEMAND
    )
    num_links = network.graph.number_of_edges()
    oracle = ShortestPathOracle.for_network(network)
    # The incident hits the busiest link at the static equilibrium -- the
    # detour routes around it are exactly what the rows must discover.
    equilibrium = solve_edge_flow_equilibrium(network, tolerance=1e-4, oracle=oracle)
    incident_edge = oracle.edges[int(np.argmax(equilibrium.edge_flows))]
    starts = np.linspace(first_start, last_start, batch)
    scenarios = incident_scenarios(incident_edge, starts, duration)

    alpha = ALPHA_SCALE / float(np.max(oracle.free_flow_costs(network)))
    policy = ReroutingPolicy(
        UniformSampling(), ScaledLinearMigration(alpha), name="uniform+scaled"
    )

    # --- the tentpole measurement: one batched CG call over all rows -------
    active = ActivePathSet.from_network(network)
    with bench_timer(
        "bench_batch_cg", "E12 batched CG ensemble",
        engine="cg-batch", instance=instance_label, cases=batch,
    ) as batched_timer:
        result = simulate_with_column_generation_batch(
            active, policy,
            update_period=period, horizon=horizon,
            scenarios=scenarios, stale=True,
            steps_per_phase=steps,
        )
    batched_seconds = batched_timer.seconds
    gaps = result.duality_gaps

    # One record per row: `repro report --bench` pivots method+gap records
    # into the per-row duality-gap table.
    for row in range(batch):
        emit_record(
            {
                "schema": BENCH_SCHEMA,
                "bench": "bench_batch_cg",
                "section": f"row {row} certificate",
                "engine": "cg-batch",
                "instance": instance_label,
                "cases": 1,
                "seconds": batched_seconds / batch,
                "rate": batch / batched_seconds,
                "method": f"cg-row{row:02d}",
                "gap": float(gaps[row]),
            }
        )

    # --- one-row counterpart loop (open mode, per-row independent growth) ---
    with bench_timer(
        "bench_batch_cg", "E12 one-row CG loop",
        engine="cg-one-row", instance=instance_label, cases=scalar_rows,
    ) as scalar_timer:
        scalar_gaps = []
        for row in range(scalar_rows):
            scalar_result = simulate_with_column_generation(
                ActivePathSet.from_network(network), policy,
                update_period=period, horizon=horizon,
                scenario=scenarios[row], stale=True,
            )
            final_net = scalar_result.network
            full_flows = oracle.expand_edge_values(
                final_net, final_net.edge_flows(scalar_result.final_flow.values())
            )
            scalar_gaps.append(
                relative_duality_gap(
                    scenarios[row].network_at(final_net, horizon), oracle, full_flows
                )
            )
    scalar_seconds = scalar_timer.seconds
    scalar_seconds_full = scalar_seconds * batch / scalar_rows
    speedup = scalar_seconds_full / batched_seconds

    # --- exactness: closed (grown-and-frozen) batched CG is bit-identical --
    frozen = ActivePathSet.from_network(result.network, closed=True)
    check_rows = min(scalar_rows, 3)
    with bench_timer(
        "bench_batch_cg", "E12 closed-mode identity check",
        engine="cg-batch-closed", instance=instance_label, cases=check_rows,
    ):
        closed_result = simulate_with_column_generation_batch(
            frozen, policy,
            update_period=period, horizon=horizon,
            scenarios=scenarios[:check_rows], stale=True,
            steps_per_phase=steps,
        )
        exact = True
        for row in range(check_rows):
            scalar_closed = simulate_with_column_generation(
                ActivePathSet.from_network(result.network, closed=True), policy,
                update_period=period, horizon=horizon,
                scenario=scenarios[row], stale=True,
            )
            exact = exact and np.array_equal(
                scalar_closed.trajectory.flows, closed_result.flow_matrix(row)
            )

    rows = [
        {
            "row": row,
            "incident": f"[{starts[row]:g}, {starts[row] + duration:g})",
            "duality_gap": float(gaps[row]),
            "certified": bool(gaps[row] <= GAP_TARGET),
        }
        for row in range(batch)
    ]
    print_table(
        rows,
        title=(
            f"E12: batched column generation on the synthetic city "
            f"({num_links} links, {od_pairs} OD pairs), incident on "
            f"{incident_edge[0]}->{incident_edge[1]} at {batch} staggered "
            f"times, T={period}"
        ),
    )
    summary = {
        "batch": batch,
        "links": num_links,
        "initial_paths": od_pairs,
        "final_paths": result.network.num_paths,
        "columns_added": result.total_columns_added,
        "growth_events": len(result.growth_events),
        "max_duality_gap": float(gaps.max()),
        "certified_rows": int((gaps <= GAP_TARGET).sum()),
        "bit_identical_closed": exact,
        "closed_rows_checked": check_rows,
        "scalar_rows_measured": scalar_rows,
        "scalar_gaps": [float(g) for g in scalar_gaps],
        "batched_seconds": round(batched_seconds, 2),
        "scalar_seconds_full": round(scalar_seconds_full, 2),
        "speedup": round(speedup, 1),
    }
    print(
        f"one batched CG call: {batch} rows, {num_links} links, "
        f"{summary['initial_paths']} -> {summary['final_paths']} columns "
        f"({summary['columns_added']} added in {summary['growth_events']} growth "
        f"events) in {batched_seconds:.2f}s"
    )
    print(
        f"certificates: {summary['certified_rows']}/{batch} rows at relative "
        f"duality gap <= {GAP_TARGET:g} (max {summary['max_duality_gap']:.2e}); "
        f"closed-mode bit-identical rows: {'yes' if exact else 'NO'}"
    )
    print(
        f"one-row CG loop ({scalar_rows} rows measured): {scalar_seconds:.2f}s "
        f"(~{scalar_seconds_full:.2f}s for all {batch}) -> {speedup:.1f}x"
    )
    return summary


def test_batch_cg_smoke():
    """Pytest entry: the smoke ensemble certifies every row and stays exact."""
    summary = run_benchmark(smoke=True)
    assert summary["max_duality_gap"] <= GAP_TARGET
    assert summary["certified_rows"] == summary["batch"]
    assert summary["bit_identical_closed"]
    assert summary["columns_added"] > 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast 8-row / 8x8-blocks variant (CI-friendly)",
    )
    parser.add_argument(
        "--scalar-rows",
        type=int,
        default=None,
        help="measure only this many one-row counterpart rows (extrapolated)",
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
            summary = run_benchmark(smoke=args.smoke, scalar_rows=args.scalar_rows)
        print(f"wrote trace {args.trace}")
    else:
        summary = run_benchmark(smoke=args.smoke, scalar_rows=args.scalar_rows)
    if not smoke_ok(summary):
        return 1
    return 0


def smoke_ok(summary: dict) -> bool:
    """The acceptance bar shared by script and CI runs."""
    return (
        summary["max_duality_gap"] <= GAP_TARGET
        and summary["bit_identical_closed"]
    )


if __name__ == "__main__":
    sys.exit(main())
