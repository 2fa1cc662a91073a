"""Family B-invariance: row ``r`` of a multi-network batched run equals the
one-row run on family member ``r``.

This is the correctness contract of heterogeneous-coefficient batching: for
Pigou and Braess coefficient families, under stale and fresh information,
with shared and per-row policies, and with and
without vectorised early stopping, every recorded sample of every row must
equal the one-row ``simulate`` run on that row's own network bit for bit --
and the recorded stop phases must equal the one-row runs' early-exit phases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import distance_stop, equilibrium_gap_stop, simulate_batch
from repro.core import replicator_policy, scaled_policy, uniform_policy, simulate
from repro.instances import braess_network, pigou_network, two_link_network
from repro.instances.pigou import pigou_equilibrium
from repro.wardrop import FlowVector, NetworkFamily


def assert_family_rows_match_one_row_runs(
    family, policies, periods, horizon, starts, stale,
    steps_per_phase=10, stop_condition=None,
):
    """Run the family batch and every row alone on its member, and compare."""
    policy_list = policies if isinstance(policies, list) else [policies] * family.size
    result = simulate_batch(
        family, policies, periods, horizon,
        initial_flows=starts, stale=stale,
        steps_per_phase=steps_per_phase,
        stop_when=stop_condition,
    )
    for row in range(family.size):
        # The one-row run is batch row 0; the predicate indexes row ``row``.
        row_stop = None
        if stop_condition is not None:
            row_stop = lambda t, f, r, row=row: stop_condition(t, f, r + row)  # noqa: E731
        alone = simulate(
            family.member(row), policy_list[row],
            update_period=periods[row], horizon=horizon,
            initial_flow=starts[row], stale=stale,
            stop_when=row_stop,
        )
        batched = result.trajectory(row)
        assert batched.network is family.member(row)
        assert len(batched) == len(alone)
        assert len(batched.phases) == len(alone.phases)
        np.testing.assert_array_equal(batched.times, alone.times)
        np.testing.assert_array_equal(batched.flow_matrix(), alone.flow_matrix())
        np.testing.assert_array_equal(batched.sample_phases, alone.sample_phases)
        np.testing.assert_array_equal(batched.phases, alone.phases)
        np.testing.assert_array_equal(batched.phase_starts, alone.phase_starts)
        np.testing.assert_array_equal(batched.phase_ends, alone.phase_ends)
        if stop_condition is not None:
            # The one-row run completes the phase that fires stop_when and
            # then exits; the batched stop phase must point at that phase.
            if result.stop_phases[row] >= 0:
                assert result.stop_phases[row] == len(alone.phases) - 1
                assert row_stop(
                    alone.phases[-1:, 1], alone.phase_ends[-1:], np.zeros(1, int)
                )[0]
    return result


def random_family_starts(family, seed):
    rng = np.random.default_rng(seed)
    return [FlowVector.random(network, rng) for network in family.networks]


class TestPigouFamilyProperty:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        stale=st.booleans(),
    )
    def test_heterogeneous_constants_and_degrees_are_batch_invariant(self, seed, stale):
        rng = np.random.default_rng(seed)
        constants = rng.uniform(0.5, 1.5, size=3)
        degrees = [1, 2, 1]
        family = NetworkFamily(
            [pigou_network(degree=d, constant=c) for d, c in zip(degrees, constants)]
        )
        policies = [replicator_policy(network) for network in family.networks]
        starts = random_family_starts(family, seed)
        periods = [float(rng.uniform(0.05, 0.3)), 0.11, 0.17]
        assert_family_rows_match_one_row_runs(
            family, policies, periods, 1.0, starts, stale
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        stale=st.booleans(),
        tolerance=st.floats(min_value=0.02, max_value=0.4),
    )
    def test_early_stopping_is_batch_invariant(self, seed, stale, tolerance):
        rng = np.random.default_rng(seed)
        constants = rng.uniform(0.5, 1.4, size=3)
        family = NetworkFamily(
            [pigou_network(degree=1, constant=c) for c in constants]
        )
        policies = [replicator_policy(network) for network in family.networks]
        starts = random_family_starts(family, seed)
        targets = [pigou_equilibrium(network) for network in family.networks]
        condition = distance_stop(targets, tolerance)
        result = assert_family_rows_match_one_row_runs(
            family, policies, [0.15, 0.2, 0.25], 12.0, starts, stale,
            stop_condition=condition,
        )
        # The replicator moves towards equilibrium, so with a generous
        # tolerance at least one row should actually freeze early.
        if tolerance >= 0.3:
            assert result.stopped_rows().any()


class TestBraessFamily:
    @pytest.mark.parametrize("stale", [True, False])
    def test_shortcut_latency_sweep_is_batch_invariant(self, stale):
        shortcuts = [0.0, 0.1, 0.25, 0.5]
        family = NetworkFamily(
            [braess_network(shortcut_latency=s) for s in shortcuts]
        )
        policies = [uniform_policy(network) for network in family.networks]
        starts = random_family_starts(family, 7)
        periods = [0.05, 0.07, 0.1, 0.25]
        assert_family_rows_match_one_row_runs(family, policies, periods, 1.3, starts, stale)

    def test_shared_policy_fresh_is_batch_invariant(self):
        """A network-independent shared policy takes the fully vectorised path."""
        shortcuts = [0.0, 0.2, 0.4]
        family = NetworkFamily(
            [braess_network(shortcut_latency=s) for s in shortcuts]
        )
        policy = scaled_policy(0.8)
        starts = [FlowVector.uniform(network) for network in family.networks]
        assert_family_rows_match_one_row_runs(
            family, policy, [0.06, 0.1, 0.15], 0.9, starts, stale=False
        )


class TestTwoLinkFamilyStopping:
    def test_equilibrium_gap_stop_is_batch_invariant(self):
        """Acceptance: long-horizon convergence sweep, stop steps exact."""
        betas = [2.0, 4.0, 6.0, 8.0]
        family = NetworkFamily([two_link_network(beta=b) for b in betas])
        policies = [uniform_policy(network) for network in family.networks]
        starts = [FlowVector(network, [0.9, 0.1]) for network in family.networks]
        condition = equilibrium_gap_stop(family, delta=0.05)
        result = assert_family_rows_match_one_row_runs(
            family, policies, [0.1] * 4, 40.0, starts, stale=True,
            steps_per_phase=10, stop_condition=condition,
        )
        assert result.stopped_rows().all(), "all rows should converge well before t=40"
        # Steeper betas keep the latency gap open longer, so stop steps vary.
        assert len(set(result.stop_phases.tolist())) > 1


class TestFamilyValidation:
    def test_family_size_must_match_batch(self):
        family = NetworkFamily([pigou_network(), pigou_network(constant=2.0)])
        policy = scaled_policy(1.0)
        with pytest.raises(ValueError):
            simulate_batch(family, policy, [0.1, 0.1, 0.1], 1.0)

    def test_initial_flows_accept_member_networks(self):
        networks = [pigou_network(constant=c) for c in (0.8, 1.2)]
        family = NetworkFamily(networks)
        policy = scaled_policy(1.0)
        starts = [FlowVector.uniform(network) for network in networks]
        result = simulate_batch(family, policy, [0.1, 0.1], 0.5, initial_flows=starts)
        assert result.batch_size == 2

    def test_initial_flows_reject_foreign_networks(self):
        networks = [pigou_network(constant=c) for c in (0.8, 1.2)]
        family = NetworkFamily(networks)
        policy = scaled_policy(1.0)
        foreign = FlowVector.uniform(pigou_network(constant=0.9))
        with pytest.raises(ValueError):
            simulate_batch(
                family, policy, [0.1, 0.1], 0.5,
                initial_flows=[foreign, FlowVector.uniform(networks[1])],
            )

    def test_stop_when_shape_validated(self):
        network = pigou_network()
        policy = scaled_policy(1.0)
        with pytest.raises(ValueError):
            simulate_batch(
                network, policy, [0.1, 0.1], 0.5,
                stop_when=lambda times, flows, rows: np.array([True]),
            )
