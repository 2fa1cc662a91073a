"""E8 -- throughput of one batched integration vs. a loop of one-row runs.

The batched engine integrates a whole ensemble of replicas as one stacked
``(B, P)`` array -- including *multi-network* ensembles where every replica
routes on its own same-topology instance with different latency
coefficients.  This benchmark builds the acceptance workload of the
family-batching layer: a 64-case two-link sweep whose slope coefficient
``beta`` differs per case, run once as one `NetworkFamily` batched
integration and once through a per-case loop of ``simulate`` calls (each a
one-row run of the same engine).  The batched path must be at least 10x
faster and agree with the per-case runs; in practice the gap is well over an
order of magnitude.

The per-case loop is timed on an 8-case subsample to keep the benchmark
quick: every case has the same horizon, resolution and nearly the same
period, hence the same per-case cost, so the subsample rate is an unbiased
estimate of the full loop's rate.

Script mode (``python benchmarks/bench_batch_throughput.py [--smoke]``)
additionally checks the *telemetry overhead guarantee*: the instrumented
engines must cost < 2% extra when no telemetry session is active.  The check
is a counted bound: the instrumentation calls one run makes, times the
disabled cost of each call, over the run's wall time.  An enabled-vs-disabled
timing is not reported: the sweep takes about 15 ms, and the best of two
such runs swings by tens of percent either way.  ``--trace PATH`` writes the
trace of one telemetry-enabled run.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Dict
from unittest import mock

import numpy as np
import pytest

from repro.analysis import print_table
from repro.batch import distance_stop, simulate_batch
from repro.core import LinearMigration, ReroutingPolicy, UniformSampling, simulate
from repro.experiments import group_key
from repro.analysis.sweeps import SweepCase
from repro.instances import two_link_network
from repro.telemetry import get_telemetry, telemetry_session
from repro.telemetry.bench import bench_timer, emit_record
from repro.wardrop import FlowVector, NetworkFamily

NUM_CASES = 64
SCALAR_SAMPLE = 8
PERIODS = [0.08, 0.1]
HORIZON = 2.0
STEPS_PER_PHASE = 20
BETAS = np.linspace(2.0, 6.0, NUM_CASES)


def build_family_sweep():
    """Return the 64-network family and its per-case configurations."""
    family = NetworkFamily([two_link_network(beta=beta) for beta in BETAS])
    # One shared policy for the whole family: uniform sampling is
    # network-independent and the linear migration rule uses the family-wide
    # latency bound, so the fully vectorised sigma/mu path applies.
    policy = ReroutingPolicy(
        sampling=UniformSampling(),
        migration=LinearMigration(family.max_latency()),
        name="uniform+linear(family)",
    )
    rng = np.random.default_rng(42)
    starts = [FlowVector.random(network, rng) for network in family.networks]
    periods = [PERIODS[i % len(PERIODS)] for i in range(NUM_CASES)]
    return family, policy, starts, periods


@pytest.mark.experiment("E8")
def test_family_batch_vs_scalar_throughput(report_header):
    family, policy, starts, periods = build_family_sweep()

    # The runner fuses all 64 same-topology/different-coefficient cases into
    # one batch group.
    cases = [
        SweepCase({"beta": float(BETAS[i])}, family.member(i), policy, periods[i], HORIZON)
        for i in range(NUM_CASES)
    ]
    assert len({group_key(case) for case in cases}) == 1

    scalar_final = []
    with bench_timer(
        "bench_batch_throughput", "E8 one-row loop",
        engine="fluid-batch", instance="two-links-family", cases=SCALAR_SAMPLE,
    ) as scalar_timer:
        for row in range(SCALAR_SAMPLE):
            trajectory = simulate(
                family.member(row), policy, update_period=periods[row], horizon=HORIZON,
                initial_flow=starts[row],
            )
            scalar_final.append(trajectory.final_flow.values())
    scalar_seconds = scalar_timer.seconds
    scalar_rate = scalar_timer.rate

    with bench_timer(
        "bench_batch_throughput", "E8 family batch",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
    ) as batch_timer:
        result = simulate_batch(
            family, policy, periods, HORIZON,
            initial_flows=starts, steps_per_phase=STEPS_PER_PHASE,
        )
    batch_seconds = batch_timer.seconds
    batch_rate = batch_timer.rate

    speedup = batch_rate / scalar_rate
    print_table(
        [
            {
                "engine": "one-row loop",
                "cases": SCALAR_SAMPLE,
                "seconds": scalar_seconds,
                "cases/sec": scalar_rate,
            },
            {
                "engine": "BatchSimulator (family)",
                "cases": NUM_CASES,
                "seconds": batch_seconds,
                "cases/sec": batch_rate,
            },
            {"engine": "speedup", "cases/sec": speedup},
        ],
        title=(
            f"E8: family-batched vs one-row-loop throughput "
            f"({NUM_CASES}-case two-link beta sweep)"
        ),
    )

    # The batched rows must agree with the one-row runs they replace.
    final = result.final_flows()
    for row, scalar_values in enumerate(scalar_final):
        assert np.allclose(final[row], scalar_values, atol=1e-10)
    assert speedup >= 10.0, f"family-batched engine only {speedup:.1f}x faster"


@pytest.mark.experiment("E8")
def test_early_stopping_saves_steps_on_convergence_sweep(report_header):
    """Frozen rows skip work: a convergence sweep with stop_when finishes
    integrating far fewer phases than the full-horizon run."""
    family, policy, _, _ = build_family_sweep()
    starts = [FlowVector(network, [0.9, 0.1]) for network in family.networks]
    periods = [0.1] * NUM_CASES
    horizon = 40.0
    targets = [FlowVector(network, [0.5, 0.5]) for network in family.networks]
    condition = distance_stop(targets, 1e-3)

    with bench_timer(
        "bench_batch_throughput", "E8b stop_when",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
        early_stopping=True,
    ) as stopped_timer:
        stopped = simulate_batch(
            family, policy, periods, horizon,
            initial_flows=starts, steps_per_phase=10, stop_when=condition,
        )
    stopped_seconds = stopped_timer.seconds

    with bench_timer(
        "bench_batch_throughput", "E8b full horizon",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
        early_stopping=False,
    ) as full_timer:
        full = simulate_batch(
            family, policy, periods, horizon, initial_flows=starts, steps_per_phase=10,
        )
    full_seconds = full_timer.seconds

    integrated_phases = int((stopped.num_points - 1).sum())
    full_phases = int((full.num_points - 1).sum())
    print_table(
        [
            {"run": "stop_when", "phases": integrated_phases, "seconds": stopped_seconds},
            {"run": "full horizon", "phases": full_phases, "seconds": full_seconds},
        ],
        title="E8b: early stopping on a 64-row convergence sweep",
    )
    assert stopped.stopped_rows().all()
    assert integrated_phases < full_phases / 2


@pytest.mark.experiment("E8")
def test_benchmark_family_batched_sweep(benchmark, report_header):
    family, policy, starts, periods = build_family_sweep()

    def run():
        return simulate_batch(
            family, policy, periods, HORIZON,
            initial_flows=starts, steps_per_phase=STEPS_PER_PHASE,
        )

    result = benchmark(run)
    assert result.batch_size == NUM_CASES


# Script mode: the telemetry overhead guarantee ------------------------------

OVERHEAD_BUDGET = 0.02  # instrumentation must cost < 2% with telemetry off


def _best_run_seconds(repeats: int) -> float:
    """Best-of-``repeats`` wall time of the family-batched integration."""
    family, policy, starts, periods = build_family_sweep()
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        simulate_batch(
            family, policy, periods, HORIZON,
            initial_flows=starts, steps_per_phase=STEPS_PER_PHASE,
        )
        best = min(best, time.perf_counter() - begin)
    return best


def _null_op_seconds(samples: int = 50_000) -> Dict[str, float]:
    """Measure the cost of one disabled call of each kind.

    ``span`` opens and closes a span, ``event`` emits one and ``metric``
    looks a counter up and adds to it, so each is at least the cost of any
    one call :func:`_instrumentation_calls` counts under that kind.
    """
    tele = get_telemetry()
    assert not tele.enabled, "overhead microbenchmark needs telemetry off"

    def span():
        with tele.span("phase", index=0, active_rows=64):
            pass

    def event():
        tele.event("bulletin_refresh", rows=64)

    def metric():
        tele.counter("bench.overhead").add()

    costs = {}
    for kind, call in (("span", span), ("event", event), ("metric", metric)):
        begin = time.perf_counter()
        for _ in range(samples):
            call()
        costs[kind] = (time.perf_counter() - begin) / samples
    return costs


def _instrumentation_calls() -> Dict[str, int]:
    """Run the sweep once with telemetry off and count the calls it makes on
    the disabled session, by kind: ``span`` (opened or annotated), ``event``
    and ``metric`` (instrument look-ups and updates).

    The no-op classes behind the disabled session are wrapped for this one
    run only; a timed run never sees the wrappers.
    """
    tele = get_telemetry()
    assert not tele.enabled, "counting the disabled calls needs telemetry off"
    calls = {"span": 0, "event": 0, "metric": 0}

    def counted(kind, function):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return function(*args, **kwargs)

        return wrapper

    targets = [
        (type(tele.tracer), ("span", "annotate"), "span"),
        (type(tele.span("count")), ("annotate",), "span"),
        (type(tele), ("event",), "event"),
        (type(tele.metrics), ("counter", "gauge", "histogram", "series_of"), "metric"),
        (type(tele.counter("count")), ("add", "set", "observe", "append", "annotate"), "metric"),
    ]
    with ExitStack() as stack:
        for owner, names, kind in targets:
            for name in names:
                wrapper = counted(kind, getattr(owner, name))
                stack.enter_context(mock.patch.object(owner, name, wrapper))
        _best_run_seconds(1)
    return calls


def measure_overhead(repeats: int):
    """Return the disabled run time, the overhead bound and the call counts.

    The bound holds with telemetry *off*: every instrumentation call one run
    makes, counted by kind, times the disabled cost of a call of that kind,
    relative to the run's wall time.  This is the < 2% assertion.
    """
    # Warm-up pass so allocator/JIT-ish effects do not bias the first timing.
    _best_run_seconds(1)
    disabled = _best_run_seconds(repeats)
    null_op = _null_op_seconds()
    calls = _instrumentation_calls()
    bound = sum(calls[kind] * null_op[kind] for kind in calls) / disabled
    return disabled, bound, calls


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="fewer repeats (CI smoke job)"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the JSONL trace of one telemetry-enabled run to this file",
    )
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else 5

    disabled, bound, calls = measure_overhead(repeats)
    counted = (
        f"{sum(calls.values())} calls per run: {calls['span']} span, "
        f"{calls['event']} event, {calls['metric']} metric"
    )
    if args.trace is not None:
        with telemetry_session(trace_path=args.trace):
            _best_run_seconds(1)
        print(f"wrote trace {args.trace}")

    family_batch = bench_timer(
        "bench_batch_throughput", "overhead baseline",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
    )
    family_batch.seconds = disabled
    emit_record(family_batch.record())

    print_table(
        [
            {
                "telemetry": "off",
                "seconds": disabled,
                "cases/sec": NUM_CASES / disabled,
                "overhead": "-",
            },
            {
                "telemetry": "off (bound)",
                "seconds": disabled,
                "cases/sec": NUM_CASES / disabled,
                "overhead": f"{bound:.2%}",
            },
        ],
        title=(
            f"telemetry overhead, family-batched sweep "
            f"({NUM_CASES} cases, best of {repeats})"
        ),
    )
    if bound >= OVERHEAD_BUDGET:
        print(
            f"FAIL: disabled-telemetry overhead bound {bound:.2%} "
            f">= budget {OVERHEAD_BUDGET:.0%} ({counted})"
        )
        return 1
    print(
        f"OK: disabled-telemetry overhead bound {bound:.2%} "
        f"< budget {OVERHEAD_BUDGET:.0%} ({counted})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
