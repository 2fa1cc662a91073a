"""Command-line interface for the reproduction library.

The CLI exposes the workflows a downstream user needs most often without
writing Python:

* ``list-instances`` -- show the registered example networks,
* ``describe``       -- print an instance's structure and theory constants
  (``D``, ``beta``, ``l_max``, the safe update period for the linear rule),
* ``solve``          -- compute the Wardrop equilibrium: path-space projection
  gradient, or edge-flow Frank--Wolfe with ``--edge-flow`` (``--method``
  picks plain/conjugate/biconjugate FW and implies it),
* ``simulate``       -- run a rerouting policy under bulletin-board staleness
  and report convergence / oscillation diagnostics,
* ``sweep``          -- run a whole update-period sweep through the batched
  experiment runner and export the result table,
* ``oscillate``      -- reproduce the Section 3.2 best-response oscillation
  for a chosen ``beta`` and update period,
* ``report``         -- render a telemetry trace (or benchmark records with
  ``--bench``) into per-engine timing and throughput tables, or solve an
  instance and print its network-level report with ``--network``,
* ``compare``        -- diff two observability artifacts (traces, bench
  records or run-ledger files) and flag regressions past a noise threshold.

``simulate`` and ``sweep`` accept ``--trace PATH`` (write the JSONL span
trace + metrics snapshot), ``--metrics`` (print the metrics table;
``sweep`` additionally merges the flattened metrics into the persisted
rows), ``--profile`` (run the wall-clock sampling profiler and print its
top self-time table) and ``--ledger DIR`` (append the run's engine records
to the persistent run ledger; ``REPRO_LEDGER_DIR`` sets the same default);
``sweep --progress`` streams per-case started/finished and batch-fusion
events to stderr as the runner works.

Examples::

    python -m repro.cli list-instances
    python -m repro.cli describe braess
    python -m repro.cli solve pigou-quadratic
    python -m repro.cli simulate two-links-steep --policy replicator --period auto
    python -m repro.cli simulate pigou-linear --method agents --agents 5000 --period 0.1
    python -m repro.cli sweep braess --policy uniform --periods 0.05,0.1,0.2 --csv out.csv
    python -m repro.cli sweep pigou-linear,pigou-quadratic --periods 0.1,0.2
    python -m repro.cli sweep sioux-falls --scenario sioux-falls-incident --trace out.jsonl
    python -m repro.cli solve sioux-falls --edge-flow --report
    python -m repro.cli report out.jsonl
    python -m repro.cli report bench-records.jsonl --bench
    python -m repro.cli report sioux-falls --network
    python -m repro.cli compare baseline.jsonl current.jsonl
    python -m repro.cli oscillate --beta 4 --period 0.5
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack
from typing import List, Optional

from .analysis import (
    SweepCase,
    analyse_oscillation,
    convergence_row_builder,
    phase_start_latency_trace,
    print_table,
)
from .core import (
    better_response_policy,
    oscillation_amplitude,
    replicator_policy,
    simulate,
    simulate_agents,
    simulate_best_response,
    uniform_policy,
)
from .instances import available_instances, get_instance, oscillation_initial_flow, two_link_network
from .solvers import EDGE_METHODS, solve_wardrop_equilibrium
from .wardrop import FlowVector, equilibrium_violation, potential

POLICY_BUILDERS = {
    "uniform": uniform_policy,
    "replicator": replicator_policy,
    "better-response": lambda network: better_response_policy(),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adaptive routing with stale information' (Fischer & Vöcking).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list-instances",
        help="list registered example networks (any command also accepts "
        "'tntp:<net_path>,<trips_path>' for an external TNTP file pair)",
    )

    describe = subparsers.add_parser("describe", help="describe an instance and its theory constants")
    describe.add_argument("instance", help="registered instance name")

    solve = subparsers.add_parser(
        "solve",
        help="compute the Wardrop equilibrium (path-space projection gradient, "
        "or edge-flow FW/CFW/BFW)",
    )
    solve.add_argument("instance", help="registered instance name")
    solve.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="duality-gap tolerance (default 1e-8 path-based; 1e-4 relative "
        "gap with --edge-flow)",
    )
    solve.add_argument(
        "--edge-flow",
        action="store_true",
        help="solve in edge-flow space via the shortest-path oracle (no path "
        "enumeration; the tolerance is then the relative duality gap "
        "TSTT/SPTT - 1) and report TSTT in raw TNTP units",
    )
    solve.add_argument(
        "--method",
        choices=EDGE_METHODS,
        default=None,
        help="edge-flow solver method: fw (Frank--Wolfe), cfw/bfw "
        "(conjugate/biconjugate FW); implies --edge-flow.  Without it or "
        "--edge-flow the path-space solve runs projection gradient",
    )
    solve.add_argument(
        "--report",
        action="store_true",
        help="print the network-level report of the solved equilibrium: "
        "per-link volume and v/c ratio, per-OD costs, TSTT/SPTT summary",
    )

    run = subparsers.add_parser("simulate", help="simulate a rerouting policy under staleness")
    run.add_argument("instance", help="registered instance name")
    run.add_argument("--policy", choices=sorted(POLICY_BUILDERS), default="replicator")
    run.add_argument(
        "--period",
        default="auto",
        help="bulletin-board update period T, or 'auto' for the safe period 1/(4 D alpha beta)",
    )
    run.add_argument("--horizon", type=float, default=60.0, help="simulated time horizon")
    run.add_argument("--fresh", action="store_true", help="use up-to-date information instead")
    run.add_argument(
        "--method",
        choices=["fluid", "agents"],
        default="fluid",
        help="the fluid-limit engine, or 'agents' for the finite-population simulator",
    )
    run.add_argument(
        "--agents", type=int, default=1000, help="population size n for --method agents"
    )
    run.add_argument(
        "--seed", type=int, default=0, help="random seed for --method agents"
    )
    run.add_argument(
        "--column-generation",
        action="store_true",
        help="grow the route set by shortest-path column generation at every "
        "bulletin refresh instead of using the instance's enumerated paths "
        "(--method fluid only)",
    )
    run.add_argument(
        "--scenario",
        default=None,
        help="run under a named nonstationary scenario (see repro.scenarios: "
        "morning-peak, braess-closure, sioux-falls-incident, ...)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a telemetry trace of the run and write it to this JSONL "
        "file (render it with `repro report PATH`)",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry metrics during the run and print them as a table",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="sample the run with the wall-clock profiler and print the top "
        "self-time locations (samples are included in --trace output)",
    )
    run.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="append this run's engine records to the persistent run ledger "
        "in DIR (the REPRO_LEDGER_DIR environment variable sets the same "
        "default)",
    )

    sweep = subparsers.add_parser(
        "sweep", help="sweep the update period through the batched experiment runner"
    )
    sweep.add_argument(
        "instance",
        help="registered instance name, or a comma-separated list of names "
        "(same-topology instances fuse into one NetworkFamily batch)",
    )
    sweep.add_argument("--policy", choices=sorted(POLICY_BUILDERS), default="replicator")
    sweep.add_argument(
        "--periods",
        default="0.05,0.1,0.2,0.4",
        help="comma-separated bulletin-board update periods T",
    )
    sweep.add_argument("--horizon", type=float, default=30.0, help="simulated time horizon")
    sweep.add_argument("--delta", type=float, default=0.1, help="equilibrium latency slack delta")
    sweep.add_argument("--epsilon", type=float, default=0.1, help="unsatisfied volume target eps")
    sweep.add_argument(
        "--method",
        choices=["fluid", "agents"],
        default="fluid",
        help="the fluid-limit engine, or 'agents' for the finite-population simulator",
    )
    sweep.add_argument(
        "--agents", type=int, default=1000, help="population size n for --method agents"
    )
    sweep.add_argument("--fresh", action="store_true", help="use up-to-date information instead")
    sweep.add_argument(
        "--column-generation",
        action="store_true",
        help="run every case with shortest-path column generation (--method "
        "fluid only; same-network cases fuse onto the batched CG driver, "
        "which unions open-mode discoveries)",
    )
    sweep.add_argument(
        "--scenario",
        default=None,
        help="run every case under a named nonstationary scenario "
        "(same-topology scenario cases still fuse into one batch)",
    )
    sweep.add_argument("--csv", default=None, help="write the result rows to this CSV file")
    sweep.add_argument("--jsonl", default=None, help="write the result rows to this JSONL file")
    sweep.add_argument(
        "--include-seed",
        action="store_true",
        help="add each case's deterministic seed as a 'seed' column",
    )
    sweep.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a telemetry trace of the whole sweep and write it to "
        "this JSONL file (render it with `repro report PATH`)",
    )
    sweep.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry metrics, print them as a table and merge the "
        "flattened values into the persisted result rows (tele_* columns)",
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream per-case started/finished and batch-fusion events to "
        "stderr while the runner works",
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="sample the sweep with the wall-clock profiler and print the "
        "top self-time locations (samples are included in --trace output)",
    )
    sweep.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="append the sweep's engine records to the persistent run ledger "
        "in DIR (the REPRO_LEDGER_DIR environment variable sets the same "
        "default)",
    )

    report = subparsers.add_parser(
        "report", help="render a telemetry trace or benchmark records file"
    )
    report.add_argument(
        "path",
        help="JSONL file: a telemetry trace (repro-trace/1, from --trace) or "
        "benchmark timing records (repro-bench/1, with --bench); with "
        "--network, a registered instance name instead",
    )
    report.add_argument(
        "--bench",
        action="store_true",
        help="treat the file as benchmark records and render the "
        "engine x instance throughput matrix",
    )
    report.add_argument(
        "--network",
        action="store_true",
        help="treat PATH as a registered instance name: solve its edge-flow "
        "equilibrium and print the network-level report (per-link v/c, "
        "per-OD costs, TSTT/SPTT summary)",
    )

    compare = subparsers.add_parser(
        "compare",
        help="compare two observability artifacts and flag regressions",
        description="Compare two JSONL observability artifacts -- telemetry "
        "traces (exclusive span self-times), benchmark records or run-ledger "
        "files (wall time per config fingerprint) -- and print a delta table "
        "with regression/improvement verdicts past a noise threshold.",
    )
    compare.add_argument(
        "path_a", help="baseline artifact: trace, bench-records or ledger JSONL"
    )
    compare.add_argument(
        "path_b", help="candidate artifact compared against the baseline"
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="noise threshold for verdicts: slower than baseline x (1 + t) "
        "flags a regression, faster than x (1 - t) an improvement "
        "(default 0.15)",
    )
    compare.add_argument(
        "--bench",
        action="store_true",
        help="force bench-record comparison instead of auto-detecting",
    )
    compare.add_argument(
        "--trace",
        action="store_true",
        help="force trace comparison instead of auto-detecting",
    )
    compare.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit with status 1 when any regression is flagged (the "
        "default exit stays 0 so CI comparisons are non-blocking)",
    )

    oscillate = subparsers.add_parser(
        "oscillate", help="reproduce the Section 3.2 best-response oscillation"
    )
    oscillate.add_argument("--beta", type=float, default=4.0, help="latency slope beta")
    oscillate.add_argument("--period", type=float, default=0.5, help="update period T")
    oscillate.add_argument("--phases", type=int, default=30, help="number of update periods")
    return parser


def _cmd_list_instances() -> int:
    for name in available_instances():
        print(name)
    return 0


def _cmd_describe(instance: str) -> int:
    network = get_instance(instance)
    print(network.describe())
    policy = uniform_policy(network)
    print(f"  safe update period (linear rule) = {policy.safe_update_period(network):.6g}")
    return 0


def _cmd_solve(
    instance: str,
    tolerance: Optional[float],
    edge_flow: bool = False,
    method: Optional[str] = None,
    report: bool = False,
) -> int:
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        print("error: --tolerance must be finite and non-negative", file=sys.stderr)
        return 2
    network = get_instance(instance)
    if edge_flow or method is not None:
        return _cmd_solve_edge_flow(
            instance, network, tolerance if tolerance is not None else 1e-4,
            method or "fw", report=report,
        )
    result = solve_wardrop_equilibrium(
        network, tolerance=tolerance if tolerance is not None else 1e-8
    )
    rows = [
        {
            "path": description,
            "flow": value,
            "latency": latency,
        }
        for description, value, latency in zip(
            network.paths.describe(), result.flow.values(), result.flow.path_latencies()
        )
    ]
    print_table(rows, title=f"Wardrop equilibrium of {instance} (projection gradient)")
    print(f"potential = {result.potential_value:.6g}, duality gap = {result.duality_gap:.3g}, "
          f"iterations = {result.iterations}, converged = {result.converged}")
    if report:
        from .analysis.network_report import network_report

        print()
        print(network_report(network, flow=result.flow).render())
    return 0


def _cmd_solve_edge_flow(
    instance: str, network, tolerance: float, method: str = "fw", report: bool = False
) -> int:
    """Solve in edge-flow space (no path enumeration) and print raw-unit TSTT.

    The instance's latencies act on normalised flow shares, so the solver's
    TSTT/SPTT come back in (latency x share) units; multiplying by the raw
    total demand recorded by the TNTP loader recovers the literature's
    vehicle-minutes.  Instances without TNTP metadata have total demand 1 and
    the two unit systems coincide.
    """
    from .largescale import ShortestPathOracle
    from .solvers import solve_edge_flow_equilibrium

    oracle = ShortestPathOracle.for_network(network)
    result = solve_edge_flow_equilibrium(
        network, tolerance=tolerance, oracle=oracle, method=method
    )
    total = float(network.graph.graph.get("total_demand", 1.0))
    order = sorted(
        range(oracle.num_edges), key=lambda i: -result.edge_flows[i]
    )[:10]
    rows = [
        {
            "link": f"{oracle.edges[i][0]}->{oracle.edges[i][1]}",
            "flow (raw)": result.edge_flows[i] * total,
            "share": result.edge_flows[i],
            "latency": network.latency_function(oracle.edges[i]).value(result.edge_flows[i]),
        }
        for i in order
    ]
    print_table(
        rows,
        title=f"Edge-flow equilibrium of {instance} ({result.method}, 10 most loaded links)",
    )
    print(f"TSTT (raw TNTP units)  = {result.tstt * total:.6g}")
    print(f"SPTT (raw TNTP units)  = {result.sptt * total:.6g}")
    print(f"relative duality gap   = {result.relative_gap:.3g}")
    print(f"Beckmann potential     = {result.potential_value:.6g}")
    print(f"iterations = {result.iterations}, converged = {result.converged}")
    if report:
        from .analysis.network_report import network_report

        print()
        print(
            network_report(
                network, edge_flows=result.edge_flows, oracle=oracle
            ).render()
        )
    return 0


def _telemetry_stack(trace, metrics, profile, ledger, progress=None):
    """Open the telemetry session the flags ask for; return ``(stack, session)``.

    ``session`` is ``None`` when no flag asks for telemetry.  Closing
    ``stack`` ends the session and then restores the ledger directory that
    ``ledger`` overrode (LIFO, so the session's ledger write still sees it).
    """
    stack = ExitStack()
    if ledger is not None:
        from .telemetry.ledger import set_ledger_dir

        stack.callback(set_ledger_dir, set_ledger_dir(ledger))
    session = None
    if trace is not None or metrics or profile or ledger is not None or progress is not None:
        from .telemetry import telemetry_session

        session = stack.enter_context(
            telemetry_session(trace_path=trace, progress=progress, profile=profile)
        )
    return stack, session


def _print_telemetry(session, metrics: bool, profile: bool) -> None:
    """Print the metrics and profiler tables of ``session`` that the flags asked for."""
    if session is None:
        return
    if metrics:
        print_table(session.metrics.rows(), title="telemetry metrics")
    if profile and session.profiler is not None:
        print_table(
            session.profiler.rows(),
            title="sampling profiler (top self-time locations)",
        )


def _cmd_simulate(
    instance: str,
    policy_name: str,
    period: str,
    horizon: float,
    fresh: bool,
    method: str = "fluid",
    num_agents: int = 1000,
    seed: int = 0,
    column_generation: bool = False,
    scenario_name: Optional[str] = None,
    trace: Optional[str] = None,
    metrics: bool = False,
    profile: bool = False,
    ledger: Optional[str] = None,
) -> int:
    network = get_instance(instance)
    policy = POLICY_BUILDERS[policy_name](network)
    scenario = None
    if scenario_name is not None:
        from .scenarios import get_scenario

        try:
            scenario = get_scenario(scenario_name, network)
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if period == "auto":
        if policy.smoothness is None:
            print("error: --period auto needs an alpha-smooth policy", file=sys.stderr)
            return 2
        update_period = policy.safe_update_period(network)
    else:
        update_period = float(period)
        if not (math.isfinite(update_period) and update_period > 0):
            print("error: --period must be finite and positive", file=sys.stderr)
            return 2
    if column_generation and method == "agents":
        print("error: --column-generation supports --method fluid only", file=sys.stderr)
        return 2
    if fresh and method == "fluid":
        try:
            policy.check_fresh_fluid()
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    stack, tele = _telemetry_stack(trace, metrics, profile, ledger)
    with stack:
        if column_generation:
            from .largescale import ActivePathSet, simulate_with_column_generation

            result = simulate_with_column_generation(
                ActivePathSet.from_network(network),
                POLICY_BUILDERS[policy_name],
                update_period=update_period,
                horizon=horizon,
                stale=not fresh,
                scenario=scenario,
            )
            trajectory = result.trajectory
            print(
                f"column generation: {result.network.num_paths} active paths "
                f"({result.total_columns_added} discovered over "
                f"{len(result.growth_events)} refreshes)"
            )
            if result.eviction_events:
                moved = sum(volume for _, volume in result.eviction_events)
                print(
                    f"closures: {len(result.eviction_events)} eviction(s), "
                    f"total flow volume moved off closed columns = {moved:.4g}"
                )
        else:
            start = FlowVector.single_path(network, {i: 0 for i in range(network.num_commodities)})
            start = start.blend(FlowVector.uniform(network), 0.05)
            if method == "agents":
                trajectory = simulate_agents(
                    network, policy, num_agents=num_agents, update_period=update_period,
                    horizon=horizon, initial_flow=start, seed=seed, stale=not fresh,
                    scenario=scenario,
                )
            else:
                trajectory = simulate(
                    network, policy, update_period=update_period, horizon=horizon,
                    initial_flow=start, stale=not fresh, scenario=scenario,
                )
    _print_telemetry(tele, metrics, profile)
    if ledger is not None:
        print(f"ledgered run under {ledger}")
    if trace is not None:
        print(f"wrote trace {trace}")
    report = analyse_oscillation(trajectory)
    if scenario is not None:
        print(f"scenario: {scenario_name} ({scenario!r})")
    print(trajectory.describe())
    print(f"  update period T      = {update_period:.6g} ({'fresh info' if fresh else 'stale info'})")
    print(f"  final potential      = {potential(trajectory.final_flow):.6g}")
    print(f"  final eq. violation  = {equilibrium_violation(trajectory.final_flow):.6g}")
    print(f"  final avg latency    = {trajectory.final_flow.average_latency():.6g}")
    print(f"  tail oscillation     = {report.amplitude:.3g} "
          f"({'oscillating' if report.is_oscillating else 'settled'})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import ExperimentPlan, run_plan

    names = [token.strip() for token in args.instance.split(",") if token.strip()]
    if not names:
        print("error: expected at least one instance name", file=sys.stderr)
        return 2
    networks = {name: get_instance(name) for name in names}
    policies = {name: POLICY_BUILDERS[args.policy](networks[name]) for name in names}
    try:
        periods = [float(token) for token in args.periods.split(",") if token.strip()]
    except ValueError:
        print("error: --periods must be a comma-separated list of numbers", file=sys.stderr)
        return 2
    if not periods or not all(math.isfinite(p) and p > 0 for p in periods):
        print("error: --periods must contain finite positive numbers", file=sys.stderr)
        return 2

    scenarios = {name: None for name in names}
    if args.scenario is not None:
        from .scenarios import get_scenario

        try:
            scenarios = {name: get_scenario(args.scenario, networks[name]) for name in names}
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    def build_case(params, rng):
        name = params["instance"]
        parameters = {"instance": name, "T": params["update_period"]}
        if args.scenario is not None:
            parameters["scenario"] = args.scenario
        return SweepCase(
            parameters=parameters,
            network=networks[name],
            policy=policies[name],
            update_period=params["update_period"],
            horizon=args.horizon,
            stale=not args.fresh,
            method=args.method,
            num_agents=args.agents if args.method == "agents" else None,
            column_generation=args.column_generation,
            scenario=scenarios[name],
        )

    try:
        plan = ExperimentPlan.from_axes(
            f"sweep-{args.instance}-{args.policy}",
            build_case,
            instance=names,
            update_period=periods,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Seed each case with its deterministic plan seed: the value persisted by
    # --include-seed is then exactly the seed the agent simulator ran with
    # (a row is reproduced by `simulate_agents(..., seed=<value>)` with the
    # sweep's uniform default start; note `repro simulate` uses a different,
    # lopsided starting flow).
    for case, seed in zip(plan.cases, plan.seeds):
        case.seed = seed
    try:
        convergence = convergence_row_builder(args.delta, args.epsilon)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def build_row(trajectory):
        row = dict(convergence(trajectory))
        row["final_avg_latency"] = trajectory.final_flow.average_latency()
        row["final_potential"] = potential(trajectory.final_flow)
        return row

    listener = None
    if args.progress:

        def listener(name, attrs):
            if name in ("case_started", "case_finished", "batch_fused"):
                detail = " ".join(f"{key}={value}" for key, value in attrs.items())
                print(f"[{name}] {detail}".rstrip(), file=sys.stderr)

    stack, tele = _telemetry_stack(args.trace, args.metrics, args.profile, args.ledger, listener)
    with stack:
        result = run_plan(plan, build_row, include_seed=args.include_seed)
    # Persisted after the session, so --metrics columns reach the files.
    if args.metrics:
        result.merge_metrics(tele.metrics.flatten())
    if args.csv:
        result.to_csv(args.csv)
    if args.jsonl:
        result.to_jsonl(args.jsonl)
    print_table(
        result.rows,
        title=f"Sweep of {args.instance} ({args.policy}, "
        f"{'fresh' if args.fresh else 'stale'} info, {args.method})",
    )
    _print_telemetry(tele, args.metrics, args.profile)
    if args.ledger is not None:
        print(f"ledgered sweep under {args.ledger}")
    for path in (args.csv, args.jsonl, args.trace):
        if path:
            print(f"wrote {path}")
    return 0


def _cmd_report(path: str, bench: bool, network: bool = False) -> int:
    if bench and network:
        print("error: --bench and --network are mutually exclusive", file=sys.stderr)
        return 2
    if network:
        return _cmd_report_network(path)
    if bench:
        from .telemetry.bench import (
            gap_matrix_rows,
            load_records,
            render_gap_matrix,
            render_throughput_matrix,
        )

        try:
            records = load_records(path)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if not records:
            print(f"error: no repro-bench/1 records in {path}", file=sys.stderr)
            return 2
        print(render_throughput_matrix(records))
        if gap_matrix_rows(records):
            print()
            print(render_gap_matrix(records))
        return 0
    from .telemetry.report import TraceFormatError, load_trace, render_trace_report

    try:
        records = load_trace(path)
    except (OSError, TraceFormatError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_trace_report(records, title=path))
    return 0


def _cmd_report_network(instance: str, tolerance: float = 1e-4) -> int:
    """Solve an instance's edge-flow equilibrium and print its network report."""
    from .analysis.network_report import network_report
    from .largescale import ShortestPathOracle
    from .solvers import solve_edge_flow_equilibrium

    try:
        network = get_instance(instance)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    oracle = ShortestPathOracle.for_network(network)
    result = solve_edge_flow_equilibrium(network, tolerance=tolerance, oracle=oracle)
    print(
        network_report(network, edge_flows=result.edge_flows, oracle=oracle).render()
    )
    print(
        f"solved with {result.method} in {result.iterations} iterations "
        f"(converged = {result.converged})"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .telemetry.compare import (
        CompareError,
        compare_bench_records,
        compare_traces,
        comparison_summary,
        load_comparable,
        render_comparison_report,
    )

    if args.bench and args.trace:
        print("error: --bench and --trace are mutually exclusive", file=sys.stderr)
        return 2
    try:
        kind_a, records_a = load_comparable(args.path_a)
        kind_b, records_b = load_comparable(args.path_b)
    except CompareError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.bench:
        kind = "bench"
    elif args.trace:
        kind = "trace"
    elif kind_a != kind_b:
        print(
            f"error: cannot compare a {kind_a} file against a {kind_b} file "
            "(use --bench or --trace to force)",
            file=sys.stderr,
        )
        return 2
    else:
        kind = kind_a
    if kind == "bench":
        rows = compare_bench_records(records_a, records_b, threshold=args.threshold)
    else:
        rows = compare_traces(records_a, records_b, threshold=args.threshold)
    print(
        render_comparison_report(
            rows,
            kind,
            threshold=args.threshold,
            title=f"{args.path_a} vs {args.path_b}",
        )
    )
    if args.fail_on_regression and comparison_summary(rows)["regression"]:
        return 1
    return 0


def _cmd_oscillate(beta: float, period: float, phases: int) -> int:
    network = two_link_network(beta=beta)
    trajectory = simulate_best_response(
        network, update_period=period, horizon=phases * period,
        initial_flow=oscillation_initial_flow(network, period),
    )
    measured = phase_start_latency_trace(trajectory)
    print(f"two-link instance, beta={beta}, T={period}, {phases} phases of best response")
    print(f"  predicted phase-start latency X = {oscillation_amplitude(beta, period):.6g}")
    print(f"  measured  phase-start latency   = {float(measured.mean()):.6g}")
    report = analyse_oscillation(trajectory)
    print(f"  oscillation period (phases)     = {report.period_phases}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list-instances":
        return _cmd_list_instances()
    if args.command == "describe":
        return _cmd_describe(args.instance)
    if args.command == "solve":
        return _cmd_solve(
            args.instance, args.tolerance, args.edge_flow, args.method, args.report
        )
    if args.command == "simulate":
        return _cmd_simulate(
            args.instance, args.policy, args.period, args.horizon, args.fresh,
            args.method, args.agents, args.seed, args.column_generation,
            args.scenario, args.trace, args.metrics, args.profile, args.ledger,
        )
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        return _cmd_report(args.path, args.bench, args.network)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "oscillate":
        return _cmd_oscillate(args.beta, args.period, args.phases)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
