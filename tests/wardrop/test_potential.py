"""Unit tests for the Beckmann potential and the Lemma 3 decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.wardrop import (
    FlowVector,
    decompose_phase,
    error_terms,
    potential,
    potentials,
    virtual_potential_gain,
)


class TestPotentialValue:
    def test_two_link_closed_form(self, two_links):
        # Each ThresholdLatency(beta=1) has integral beta*(x-1/2)^2/2 for x>1/2.
        flow = FlowVector(two_links, [0.75, 0.25])
        expected = 0.5 * (0.75 - 0.5) ** 2
        assert potential(flow) == pytest.approx(expected)

    def test_equilibrium_minimises_potential(self, two_links):
        equilibrium = FlowVector(two_links, [0.5, 0.5])
        for first in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
            other = FlowVector(two_links, [first, 1.0 - first])
            assert potential(equilibrium) <= potential(other) + 1e-12

    def test_matches_edge_flow_form(self, braess):
        flow = FlowVector.uniform(braess)
        assert potential(flow) == pytest.approx(
            braess.latency_table().potential(flow.edge_flows())
        )

    def test_potentials_of_stacked_flows(self, two_links):
        flows = np.array([[x, 1 - x] for x in [0.5, 0.7, 0.9]])
        trace = potentials(two_links, flows)
        assert len(trace) == 3
        assert trace[0] <= trace[1] <= trace[2]
        # Each row is the one-row potential, bit for bit.
        assert trace.tolist() == [potential(FlowVector(two_links, row)) for row in flows]


class TestLemma3Decomposition:
    @pytest.mark.parametrize("start,end", [(0.9, 0.6), (0.5, 0.5), (0.2, 0.8)])
    def test_identity_holds_exactly_two_links(self, two_links, start, end):
        stale = FlowVector(two_links, [start, 1 - start])
        current = FlowVector(two_links, [end, 1 - end])
        decomposition = decompose_phase(stale, current)
        assert decomposition.identity_residual == pytest.approx(0.0, abs=1e-12)

    def test_identity_holds_on_braess(self, braess):
        rng = np.random.default_rng(42)
        for _ in range(10):
            stale = FlowVector.random(braess, rng)
            current = FlowVector.random(braess, rng)
            decomposition = decompose_phase(stale, current)
            assert decomposition.identity_residual == pytest.approx(0.0, abs=1e-10)

    def test_error_terms_nonnegative_for_monotone_latencies(self, braess):
        # U_e = int (l(u) - l(fhat)) du over [fhat, f]; for non-decreasing l
        # this is always >= 0 regardless of direction of the change.
        rng = np.random.default_rng(7)
        for _ in range(10):
            stale = FlowVector.random(braess, rng)
            current = FlowVector.random(braess, rng)
            assert np.all(error_terms(stale, current) >= -1e-12)

    def test_virtual_gain_zero_for_no_move(self, braess):
        flow = FlowVector.uniform(braess)
        assert virtual_potential_gain(flow, flow) == pytest.approx(0.0)

    def test_virtual_gain_negative_for_selfish_move(self, two_links):
        # Moving flow from the loaded (expensive) link to the empty one.
        stale = FlowVector(two_links, [0.9, 0.1])
        current = FlowVector(two_links, [0.7, 0.3])
        assert virtual_potential_gain(stale, current) < 0.0

    def test_cross_network_rejected(self, two_links, braess):
        with pytest.raises(ValueError):
            virtual_potential_gain(FlowVector.uniform(two_links), FlowVector.uniform(braess))

    def test_satisfies_lemma4_flag(self, two_links):
        stale = FlowVector(two_links, [0.9, 0.1])
        current = FlowVector(two_links, [0.85, 0.15])
        decomposition = decompose_phase(stale, current)
        # A small move in the selfish direction keeps Delta Phi below V/2.
        assert decomposition.satisfies_lemma4()
