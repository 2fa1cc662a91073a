"""E9 -- Validity of the fluid limit: finite agents vs the ODE trajectory.

The paper's analysis is carried out in the fluid limit of infinitely many
infinitesimal agents.  This benchmark runs the finite-population
discrete-event simulator for growing population sizes and reports the
sup-norm deviation of the empirical path shares from the fluid-limit
trajectory, which should shrink roughly like ``1/sqrt(n)``.

The whole population sweep -- ``n`` from 1e2 to 1e9, seven decades, several
replicas each -- runs as **one** :class:`~repro.batch.agents.BatchAgentSimulator`
call instead of a Python loop of one-replica simulations.  A stale phase
costs O(paths) whatever ``n`` is (one multinomial draw per commodity block),
so the largest populations cost what the smallest do.  A second test measures
the batched call's throughput against a loop of one-row ``simulate_agents``
runs on the acceptance workload (n = 10^4, B = 32) and checks both the
speedup and the bit-identity of the replicas the loop re-runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import fluid_limit_deviation, print_table
from repro.batch import simulate_agent_batch
from repro.core import replicator_policy, simulate, simulate_agents
from repro.instances import lopsided_flow, two_link_network
from repro.telemetry.bench import bench_timer

POPULATIONS = [10**k for k in range(2, 10)]
REPLICAS = 4
HORIZON = 10.0

THROUGHPUT_POPULATION = 10_000
THROUGHPUT_BATCH = 32
THROUGHPUT_HORIZON = 2.5
LOOP_SAMPLE = 4


def build_workload():
    network = two_link_network(beta=4.0)
    policy = replicator_policy(network, exploration=1e-3)
    period = policy.safe_update_period(network)
    start = lopsided_flow(network, 0.9)
    return network, policy, period, start


@pytest.mark.experiment("E9")
def test_finite_agents_approach_fluid_limit(report_header):
    network, policy, period, start = build_workload()
    fluid = simulate(
        network, policy, update_period=period, horizon=HORIZON, initial_flow=start
    )

    # The whole n-sweep (8 populations x 4 replicas) is one batched call.
    grid = [(n, replica) for n in POPULATIONS for replica in range(REPLICAS)]
    with bench_timer(
        "bench_fluid_limit", "E9 population sweep",
        engine="agents-batch", instance="two-links", cases=len(grid),
    ) as timer:
        result = simulate_agent_batch(
            network,
            policy,
            num_agents=[n for n, _ in grid],
            update_periods=period,
            horizons=HORIZON,
            initial_flows=start,
            seeds=[7 * n + replica for n, replica in grid],
        )
    seconds = timer.seconds

    rows = []
    means = []
    for n in POPULATIONS:
        deviations = [
            fluid_limit_deviation(result.trajectory(row), fluid)
            for row, (grid_n, _) in enumerate(grid)
            if grid_n == n
        ]
        means.append(float(np.mean(deviations)))
        rows.append(
            {
                "n_agents": n,
                "replicas": REPLICAS,
                "mean_sup_deviation": means[-1],
                "expected_scale(1/sqrt(n))": 1.0 / np.sqrt(n),
            }
        )
    print_table(
        rows,
        title=(
            f"E9: finite-agent shares vs fluid trajectory "
            f"({len(grid)} replicas in one batched call, {seconds:.2f}s)"
        ),
    )
    # Seven orders of magnitude more agents must shrink the deviation, and
    # the largest population must sit in the O(1/sqrt(n)) regime (the RK4
    # fluid reference is accurate to ~1e-14, far below 1/sqrt(10^9)).
    assert means[-1] < means[0]
    assert means[-1] < 5.0 / np.sqrt(POPULATIONS[-1])


@pytest.mark.experiment("E9")
def test_batched_agent_throughput_vs_one_row_loop(report_header):
    network, policy, period, start = build_workload()
    seeds = list(range(THROUGHPUT_BATCH))

    # Baseline: the per-replica loop of one-row runs, timed on a subsample
    # (every replica has the same configuration, so the subsample rate is an
    # unbiased estimate of the full loop's rate).
    loop_runs = []
    with bench_timer(
        "bench_fluid_limit", "E9b one-row loop",
        engine="agents-batch", instance="two-links", cases=LOOP_SAMPLE,
        population=THROUGHPUT_POPULATION,
    ) as loop_timer:
        for row in range(LOOP_SAMPLE):
            loop_runs.append(
                simulate_agents(
                    network, policy, num_agents=THROUGHPUT_POPULATION, update_period=period,
                    horizon=THROUGHPUT_HORIZON, initial_flow=start, seed=seeds[row],
                )
            )
    loop_seconds = loop_timer.seconds
    loop_rate = loop_timer.rate

    with bench_timer(
        "bench_fluid_limit", "E9b replica batch",
        engine="agents-batch", instance="two-links", cases=THROUGHPUT_BATCH,
        population=THROUGHPUT_POPULATION,
    ) as batch_timer:
        result = simulate_agent_batch(
            network,
            policy,
            num_agents=[THROUGHPUT_POPULATION] * THROUGHPUT_BATCH,
            update_periods=period,
            horizons=THROUGHPUT_HORIZON,
            initial_flows=start,
            seeds=seeds,
        )
    batch_seconds = batch_timer.seconds
    batch_rate = batch_timer.rate

    speedup = batch_rate / loop_rate
    print_table(
        [
            {
                "engine": "one-row loop",
                "replicas": LOOP_SAMPLE,
                "seconds": loop_seconds,
                "replicas/sec": loop_rate,
            },
            {
                "engine": "BatchAgentSimulator",
                "replicas": THROUGHPUT_BATCH,
                "seconds": batch_seconds,
                "replicas/sec": batch_rate,
            },
            {"engine": "speedup", "replicas/sec": speedup},
        ],
        title=(
            f"E9b: one batched agent call vs a loop of one-row runs "
            f"(n={THROUGHPUT_POPULATION}, B={THROUGHPUT_BATCH})"
        ),
    )

    # The batched rows must be bit-identical to the one-row runs they replace.
    for row, trajectory in enumerate(loop_runs):
        assert np.array_equal(trajectory.flow_matrix(), result.trajectory(row).flow_matrix())
    # A one-row run is the same engine, so fusing buys only the per-phase
    # Python overhead of the other rows (~9.6x on a 2-vCPU Xeon now that a
    # stale phase is one multinomial per row); it must never lose to the loop.
    assert speedup >= 1.0, f"one batched call is {1 / speedup:.1f}x slower than the loop"


@pytest.mark.experiment("E9")
def test_benchmark_batched_agent_sweep(benchmark, report_header):
    network, policy, period, start = build_workload()

    def run():
        return simulate_agent_batch(
            network, policy,
            num_agents=[1000] * 8,
            update_periods=period,
            horizons=HORIZON,
            initial_flows=start,
            seeds=list(range(8)),
        )

    result = benchmark(run)
    assert result.batch_size == 8
