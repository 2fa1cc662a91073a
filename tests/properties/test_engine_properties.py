"""Property-based tests (hypothesis) of the fluid and column-generation engines.

Random parallel-link and grid instances with affine or BPR latencies run as
batches of B in 1..4 rows with per-row update periods, horizons,
resolutions and policies: each row draws uniform or proportional sampling,
its own l_max and exploration, so a batch may mix rule classes (or all rows
share one policy).  The grids' two commodities have unequal path counts, so
the commodity blocks are padded.  Every fluid row must match the
independent integrator of ``tests/reference_dynamics.py`` to 1e-9 over the
whole run (and its one-row ``simulate`` run bit for bit), stay non-negative
and conserve every commodity's demand; closed-mode column-generation rows
must equal the fluid engine's rows bit for bit; and for T <= T* the
Beckmann potential never rises across a phase (Lemma 4).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_dynamics import reference_run
from repro.analysis import phase_potential_stats
from repro.batch import simulate_batch
from repro.core import UniformSampling, replicator_policy, simulate, uniform_policy
from repro.instances import get_instance, parallel_links_network
from repro.largescale import ActivePathSet, simulate_with_column_generation_batch
from repro.wardrop import AffineLatency, BPRLatency, Commodity, FlowVector, WardropNetwork

EXPLORATION = 0.05
# Phase-level slack of the Lemma 4 check, as in the paper-sweep benchmark.
LEMMA4_SLACK = 1e-7


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
        # From one column over: fewer paths than the first commodity.
        commodities.append(Commodity((0, 1), (rows - 1, cols - 1), 0.5))
    return WardropNetwork.from_edges(edges, commodities)


@st.composite
def policy_specs(draw):
    """One row's policy: sampling class, l_max scale and exploration."""
    return dict(
        sampling=draw(st.sampled_from(["uniform", "proportional"])),
        l_max_scale=draw(st.sampled_from([1.0, 1.5, 4.0])),
        exploration=draw(st.sampled_from([0.0, EXPLORATION, 0.2])),
    )


@st.composite
def ensembles(draw):
    """Per-row periods, horizons, resolutions and start seeds for B in 1..4."""
    batch = draw(st.integers(1, 4))
    periods = [draw(st.floats(0.05, 0.6)) for _ in range(batch)]
    horizons = [period * draw(st.floats(0.5, 12.0)) for period in periods]
    shared = draw(st.booleans())
    specs = [draw(policy_specs()) for _ in range(1 if shared else batch)]
    specs = specs * batch if shared else specs
    return dict(
        periods=periods,
        horizons=horizons,
        steps=[draw(st.integers(2, 8)) for _ in range(batch)],
        stale=draw(st.booleans()),
        specs=specs,
        shared=shared,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def build_policy(network, spec):
    l_max = spec["l_max_scale"] * network.max_latency()
    if spec["sampling"] == "uniform":
        return uniform_policy(network, max_latency=l_max)
    return replicator_policy(network, max_latency=l_max, exploration=spec["exploration"])


def build_policies(network, run):
    """One policy object for every row when shared, else one per row."""
    if run["shared"]:
        return build_policy(network, run["specs"][0])
    return [build_policy(network, spec) for spec in run["specs"]]


def row_policy(policies, row):
    return policies if not isinstance(policies, list) else policies[row]


def random_starts(network, batch, seed):
    rng = np.random.default_rng(seed)
    return np.stack([FlowVector.random(network, rng).values() for _ in range(batch)])


def reference(network, policy, start, period, horizon, steps, stale):
    sampling = "uniform" if isinstance(policy.sampling, UniformSampling) else "proportional"
    exploration = 0.0 if sampling == "uniform" else policy.sampling.exploration
    return reference_run(
        network, sampling, policy.migration.max_latency, exploration, period, horizon,
        steps, start, stale=stale,
    )


def assert_feasible(network, flows):
    assert flows.min() >= 0.0
    for index, commodity in enumerate(network.commodities):
        start, stop = network.paths.commodity_slice(index)
        np.testing.assert_allclose(
            flows[:, start:stop].sum(axis=1), commodity.demand, rtol=1e-9, atol=0
        )


# horizon / period rounds to 3.0000000000000004 while 3 * period == horizon:
# the engine runs three phases (a phase runs iff it starts before the
# horizon), and the reference must not add a zero-length fourth one.
@example(
    network=parallel_links_network([AffineLatency(1.0, 0.5), AffineLatency(2.0, 0.0)]),
    run=dict(
        periods=[0.08894275364773499],
        horizons=[0.266828260943205],
        steps=[4],
        stale=True,
        specs=[dict(sampling="proportional", l_max_scale=1.0, exploration=EXPLORATION)],
        shared=True,
        seed=0,
    ),
)
@given(network=instances(), run=ensembles())
@settings(max_examples=50, deadline=None)
def test_fluid_rows_match_the_reference_and_their_one_row_runs(network, run):
    policies = build_policies(network, run)
    starts = random_starts(network, len(run["periods"]), run["seed"])
    result = simulate_batch(
        network, policies, run["periods"], run["horizons"], initial_flows=starts,
        stale=run["stale"], steps_per_phase=run["steps"],
    )
    for row, (period, horizon, steps) in enumerate(
        zip(run["periods"], run["horizons"], run["steps"])
    ):
        policy = row_policy(policies, row)
        times, flows = reference(
            network, policy, starts[row], period, horizon, steps, run["stale"]
        )
        ours = result.flow_matrix(row)
        np.testing.assert_allclose(result.times[row, : len(times)], times, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ours, flows, rtol=0, atol=1e-9)
        assert_feasible(network, ours)
        alone = simulate(
            network, policy, update_period=period, horizon=horizon,
            initial_flow=FlowVector(network, starts[row]), stale=run["stale"],
        )
        assert np.array_equal(alone.flow_matrix(), ours)


@given(network=instances(), run=ensembles())
@settings(max_examples=50, deadline=None)
def test_closed_column_generation_rows_equal_the_fluid_rows(network, run):
    policies = build_policies(network, run)
    starts = random_starts(network, len(run["periods"]), run["seed"])
    settings_ = dict(
        initial_flows=starts, stale=run["stale"], steps_per_phase=run["steps"],
    )
    fluid = simulate_batch(network, policies, run["periods"], run["horizons"], **settings_)
    columns = simulate_with_column_generation_batch(
        ActivePathSet.from_network(network, closed=True), policies,
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
        initial_flow=start,
    )
    _, flows = reference(network, policy, start.values(), period, phases * period, 10, True)
    assert len(trajectory.phases) == phases
    np.testing.assert_allclose(trajectory.flow_matrix(), flows, rtol=0, atol=1e-9)


@given(
    network=instances(),
    run=ensembles(),
    ratios=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_the_potential_never_rises_across_a_phase_when_t_is_safe(network, run, ratios):
    """Lemma 4: for T <= T* every stale phase has delta Phi <= V / 2 <= 0."""
    policies = build_policies(network, run)
    batch = len(run["periods"])
    periods = [
        ratio * row_policy(policies, row).safe_update_period(network)
        for row, ratio in enumerate(ratios[:batch])
    ]
    horizons = [12 * period for period in periods]
    result = simulate_batch(
        network, policies, periods, horizons,
        initial_flows=random_starts(network, batch, run["seed"]),
        steps_per_phase=run["steps"],
    )
    for row in range(batch):
        stats = phase_potential_stats(result.trajectory(row), slack=LEMMA4_SLACK)
        assert stats.lemma4_violations == 0
        assert stats.max_potential_increase <= LEMMA4_SLACK
