"""Unit tests for the exact parallel-link solver and the line search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instances import (
    braess_network,
    identical_linear_links,
    parallel_links_network,
    pigou_like_links,
    two_link_network,
)
from repro.solvers import (
    bisection_root,
    equilibrium_latency_level,
    solve_parallel_links,
)
from repro.wardrop import AffineLatency, ConstantLatency, is_wardrop_equilibrium


class TestLineSearch:
    def test_bisection_interior_root(self):
        minimiser = bisection_root(lambda x: 2 * (x - 0.7))
        assert minimiser == pytest.approx(0.7, abs=1e-9)

    def test_bisection_clamps_to_bounds(self):
        assert bisection_root(lambda x: 1.0) == 0.0
        assert bisection_root(lambda x: -1.0) == 1.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            bisection_root(lambda x: x, lo=1.0, hi=0.0)


class TestParallelLinkSolver:
    def test_two_links_even_split(self):
        network = two_link_network(beta=5.0)
        flow = solve_parallel_links(network)
        assert flow.values() == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_identical_links(self):
        network = identical_linear_links(8)
        flow = solve_parallel_links(network)
        assert flow.values() == pytest.approx([0.125] * 8, abs=1e-6)

    def test_affine_asymmetric_links(self):
        # l1 = x, l2 = x + 0.5: equilibrium at l1(f1) = l2(f2) when both used:
        # f1 = f2 + 0.5, f1 + f2 = 1 -> f1 = 0.75.
        network = parallel_links_network([AffineLatency(1.0, 0.0), AffineLatency(1.0, 0.5)])
        flow = solve_parallel_links(network)
        assert flow.values() == pytest.approx([0.75, 0.25], abs=1e-4)
        assert is_wardrop_equilibrium(flow, tolerance=1e-3)

    def test_unused_expensive_link(self):
        # The constant link is so expensive it should receive no flow.
        network = parallel_links_network([AffineLatency(1.0, 0.0), ConstantLatency(5.0)])
        flow = solve_parallel_links(network)
        assert flow.values()[1] == pytest.approx(0.0, abs=1e-6)

    def test_pigou_like_instance_is_equilibrium(self):
        network = pigou_like_links(5, degree=2)
        flow = solve_parallel_links(network)
        assert is_wardrop_equilibrium(flow, tolerance=1e-3)

    def test_equilibrium_latency_level(self):
        network = parallel_links_network([AffineLatency(1.0, 0.0), AffineLatency(1.0, 0.5)])
        assert equilibrium_latency_level(network) == pytest.approx(0.75, abs=1e-3)

    def test_rejects_non_parallel_network(self):
        with pytest.raises(ValueError):
            solve_parallel_links(braess_network())
