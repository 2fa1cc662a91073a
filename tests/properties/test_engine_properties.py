"""Property-based tests (hypothesis) of the fluid and column-generation engines.

Random parallel-link and grid instances with affine or BPR latencies run as
batches of B in 1..4 rows with per-row update periods, horizons and
resolutions.  Every fluid row must match the independent integrator of
``tests/reference_dynamics.py`` to 1e-9 over the whole run (and its one-row
``simulate`` run bit for bit), stay non-negative and conserve every
commodity's demand; closed-mode column-generation rows must equal the fluid
engine's rows bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_dynamics import reference_run
from repro.batch import simulate_batch
from repro.core import replicator_policy, simulate, uniform_policy
from repro.instances import get_instance, parallel_links_network
from repro.largescale import ActivePathSet, simulate_with_column_generation_batch
from repro.wardrop import AffineLatency, BPRLatency, Commodity, FlowVector, WardropNetwork

EXPLORATION = 0.05


@st.composite
def instances(draw):
    """A parallel-link or grid network with affine or BPR latencies."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bpr = draw(st.booleans())

    def latency():
        if bpr:
            return BPRLatency(
                rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5), rng.uniform(0.15, 1.0),
                int(rng.choice([1, 2, 4])),
            )
        return AffineLatency(rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0))

    if draw(st.booleans()):
        return parallel_links_network([latency() for _ in range(draw(st.integers(2, 5)))])
    rows, cols = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    edges = [((r, c), (r, c + 1), latency()) for r in range(rows) for c in range(cols - 1)]
    edges += [((r, c), (r + 1, c), latency()) for r in range(rows - 1) for c in range(cols)]
    commodities = [Commodity((0, 0), (rows - 1, cols - 1), 1.0)]
    if draw(st.booleans()):
        commodities.append(Commodity((0, 1), (rows - 1, cols - 1), 0.5))
    return WardropNetwork.from_edges(edges, commodities)


@st.composite
def ensembles(draw):
    """Per-row periods, horizons, resolutions and start seeds for B in 1..4."""
    batch = draw(st.integers(1, 4))
    periods = [draw(st.floats(0.05, 0.6)) for _ in range(batch)]
    horizons = [period * draw(st.floats(0.5, 12.0)) for period in periods]
    return dict(
        periods=periods,
        horizons=horizons,
        steps=[draw(st.integers(2, 8)) for _ in range(batch)],
        stale=draw(st.booleans()),
        method=draw(st.sampled_from(["rk4", "euler"])),
        sampling=draw(st.sampled_from(["uniform", "proportional"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def build_policy(network, sampling):
    if sampling == "uniform":
        return uniform_policy(network)
    return replicator_policy(network, exploration=EXPLORATION)


def random_starts(network, batch, seed):
    rng = np.random.default_rng(seed)
    return np.stack([FlowVector.random(network, rng).values() for _ in range(batch)])


def reference(network, sampling, policy, start, period, horizon, steps, method, stale):
    exploration = EXPLORATION if sampling == "proportional" else 0.0
    return reference_run(
        network, sampling, policy.migration.max_latency, exploration, period, horizon,
        steps, method, start, stale=stale,
    )


def assert_feasible(network, flows):
    assert flows.min() >= 0.0
    for index, commodity in enumerate(network.commodities):
        start, stop = network.paths.commodity_slice(index)
        np.testing.assert_allclose(
            flows[:, start:stop].sum(axis=1), commodity.demand, rtol=1e-9, atol=0
        )


@given(network=instances(), run=ensembles())
@settings(max_examples=50, deadline=None)
def test_fluid_rows_match_the_reference_and_their_one_row_runs(network, run):
    policy = build_policy(network, run["sampling"])
    starts = random_starts(network, len(run["periods"]), run["seed"])
    result = simulate_batch(
        network, policy, run["periods"], run["horizons"], initial_flows=starts,
        stale=run["stale"], steps_per_phase=run["steps"], method=run["method"],
    )
    for row, (period, horizon, steps) in enumerate(
        zip(run["periods"], run["horizons"], run["steps"])
    ):
        times, flows = reference(
            network, run["sampling"], policy, starts[row], period, horizon, steps,
            run["method"], run["stale"],
        )
        ours = result.flow_matrix(row)
        np.testing.assert_allclose(result.times[row, : len(times)], times, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ours, flows, rtol=0, atol=1e-9)
        assert_feasible(network, ours)
        alone = simulate(
            network, policy, update_period=period, horizon=horizon,
            initial_flow=FlowVector(network, starts[row]), stale=run["stale"],
            steps_per_phase=steps, method=run["method"],
        )
        assert np.array_equal(alone.flow_matrix(), ours)


@given(network=instances(), run=ensembles())
@settings(max_examples=50, deadline=None)
def test_closed_column_generation_rows_equal_the_fluid_rows(network, run):
    policy = build_policy(network, run["sampling"])
    starts = random_starts(network, len(run["periods"]), run["seed"])
    settings_ = dict(
        initial_flows=starts, stale=run["stale"], steps_per_phase=run["steps"],
        method=run["method"],
    )
    fluid = simulate_batch(network, policy, run["periods"], run["horizons"], **settings_)
    columns = simulate_with_column_generation_batch(
        ActivePathSet.from_network(network, closed=True), policy,
        update_period=run["periods"], horizon=run["horizons"], **settings_,
    )
    assert np.array_equal(columns.num_points, fluid.num_points)
    for row in range(len(run["periods"])):
        count = fluid.num_points[row]
        assert np.array_equal(columns.times[row, :count], fluid.times[row, :count])
        assert np.array_equal(columns.flow_matrix(row), fluid.flow_matrix(row))


@pytest.mark.parametrize(
    "name, max_latency, period, phases",
    [
        ("braess", None, 0.1, 50),
        ("parallel-8-affine", None, 0.1, 50),
        # The paper-sweep's braess rows: alpha = 2, T = T*.
        ("braess", 0.5, None, 40),
    ],
)
def test_runs_across_the_old_skipped_refreshes_match_the_reference(
    name, max_latency, period, phases
):
    network = get_instance(name)
    policy = uniform_policy(network, max_latency=max_latency)
    if period is None:
        period = policy.safe_update_period(network)
    # A board refreshing only when floor(t / T) advances skips these phases.
    assert any(np.floor(k * period / period) < k for k in range(phases))
    start = FlowVector.random(network, np.random.default_rng(11))
    trajectory = simulate(
        network, policy, update_period=period, horizon=phases * period,
        initial_flow=start, steps_per_phase=10,
    )
    _, flows = reference(
        network, "uniform", policy, start.values(), period, phases * period, 10, "rk4", True
    )
    assert len(trajectory.phases) == phases
    np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=1e-9)
