"""Unit tests for the path-space Wardrop-equilibrium solver (projection gradient)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instances import (
    available_instances,
    braess_network,
    get_instance,
    grid_network,
    heterogeneous_affine_links,
    identical_linear_links,
    pigou_network,
    two_link_network,
)
from repro.solvers import (
    all_or_nothing_flow,
    duality_gap,
    optimal_potential,
    solve_wardrop_equilibrium,
)
from repro.solvers.parallel_links import solve_parallel_links
from repro.solvers.projection_gradient import certified_equilibrium
from repro.wardrop import FlowVector, is_wardrop_equilibrium, potential, unsatisfied_volume

# Registry instances small enough for path space (the tracking module's
# automatic path-space limit).
ENUMERABLE = [
    name for name in available_instances() if get_instance(name).num_paths <= 200
]


class TestAllOrNothing:
    def test_routes_to_cheapest_path(self, pigou):
        latencies = np.array([1.0, 0.2])
        target = all_or_nothing_flow(pigou, latencies)
        assert target[1] == pytest.approx(1.0)
        assert target[0] == pytest.approx(0.0)

    def test_respects_commodity_demands(self, layered):
        flow = FlowVector.uniform(layered)
        target = all_or_nothing_flow(layered, flow.path_latencies())
        FlowVector(layered, target).check_feasible()


class TestSolver:
    def test_two_links_even_split(self):
        network = two_link_network(beta=3.0)
        result = solve_wardrop_equilibrium(network)
        assert result.converged
        assert result.flow.values() == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_pigou_equilibrium(self):
        result = solve_wardrop_equilibrium(pigou_network(degree=1))
        assert result.flow.values()[1] == pytest.approx(1.0, abs=1e-3)
        assert is_wardrop_equilibrium(result.flow, tolerance=1e-3)

    def test_braess_equilibrium_latency_two(self):
        result = solve_wardrop_equilibrium(braess_network())
        assert result.flow.max_used_latency() == pytest.approx(2.0, abs=1e-3)

    def test_identical_links_split_evenly(self):
        network = identical_linear_links(5)
        result = solve_wardrop_equilibrium(network)
        assert result.flow.values() == pytest.approx([0.2] * 5, abs=1e-4)

    @pytest.mark.parametrize("name", ENUMERABLE)
    def test_every_enumerable_registry_instance_converges(self, name):
        network = get_instance(name)
        result = solve_wardrop_equilibrium(network, tolerance=1e-8)
        assert result.converged
        assert result.duality_gap <= 1e-8

    def test_duality_gap_certificate(self):
        # The reported gap is the gap of the returned flow, and no agent is
        # left on a path noticeably above its commodity's minimum.
        network = heterogeneous_affine_links(6, seed=2)
        result = solve_wardrop_equilibrium(network, tolerance=1e-9)
        assert result.converged
        assert result.duality_gap <= 1e-9
        assert result.duality_gap == duality_gap(network, result.flow.values())
        assert unsatisfied_volume(result.flow, delta=1e-4) == 0.0

    @pytest.mark.parametrize("tolerance", [0.0, 1e-8])
    def test_converged_describes_the_returned_flow(self, tolerance):
        # At tolerance 0 the loop can meet the gap on its pre-projection
        # iterate while the projected flow it returns does not.
        network = get_instance("parallel-8-affine")
        result = solve_wardrop_equilibrium(network, tolerance=tolerance)
        gap = duality_gap(network, result.flow.values())
        assert result.duality_gap == gap
        assert result.converged == (gap <= tolerance)

    def test_gap_history_is_recorded(self):
        result = solve_wardrop_equilibrium(braess_network())
        assert len(result.gap_history) == result.iterations
        assert result.gap_history[-1] <= result.gap_history[0] + 1e-12

    def test_warm_start(self):
        network = pigou_network(degree=2)
        warm = FlowVector(network, [0.0, 1.0])
        result = solve_wardrop_equilibrium(network, initial=warm)
        assert result.converged
        assert result.iterations <= 3

    def test_warm_start_at_the_equilibrium_is_exact(self):
        # Started exactly at the equilibrium, the very first duality-gap
        # check certifies convergence: no sweep moves the flow.
        network = pigou_network(degree=2)
        equilibrium = solve_wardrop_equilibrium(network, tolerance=1e-10).flow
        result = solve_wardrop_equilibrium(network, tolerance=1e-8, initial=equilibrium)
        assert result.converged
        assert result.iterations == 1
        assert np.allclose(result.flow.values(), equilibrium.values(), atol=1e-9)

    def test_warm_start_survives_degenerate_truthiness(self):
        # Regression: the warm start used to be dropped by `initial or
        # uniform` whenever the FlowVector's __len__-based truthiness was
        # falsy.  The check must be an explicit `is None`.
        network = pigou_network(degree=2)
        equilibrium = solve_wardrop_equilibrium(network, tolerance=1e-10).flow

        class _LenZeroFlow(FlowVector):
            def __len__(self):
                return 0

        warm = _LenZeroFlow(network, equilibrium.values())
        assert not warm  # the degenerate truthiness the `or` would trip on
        result = solve_wardrop_equilibrium(network, tolerance=1e-8, initial=warm)
        assert result.iterations == 1

    def test_feasibility_is_preserved_through_sweeps(self):
        network = grid_network(3, 3, num_commodities=2, seed=3)
        result = solve_wardrop_equilibrium(network, tolerance=1e-6)
        FlowVector(network, result.flow.values()).check_feasible()
        assert result.potential_value == pytest.approx(potential(result.flow))

    def test_potential_at_solution_is_minimal(self):
        network = heterogeneous_affine_links(4, seed=9)
        result = solve_wardrop_equilibrium(network, tolerance=1e-10)
        rng = np.random.default_rng(1)
        for _ in range(10):
            candidate = FlowVector.random(network, rng)
            assert result.potential_value <= potential(candidate) + 1e-12

    def test_duality_gap_function(self, pigou):
        equilibrium = solve_wardrop_equilibrium(pigou).flow
        assert duality_gap(pigou, equilibrium.values()) <= 1e-6
        assert duality_gap(pigou, np.array([1.0, 0.0])) > 0.0


class TestOptimalPotential:
    @pytest.mark.parametrize("name", ["parallel-8-affine", "parallel-16-affine", "pigou-like-6"])
    def test_matches_the_exact_parallel_link_solver(self, name):
        network = get_instance(name)
        exact = solve_parallel_links(network)
        assert optimal_potential(network) == pytest.approx(potential(exact), abs=1e-9)
        result = solve_wardrop_equilibrium(network, tolerance=1e-9)
        assert np.abs(result.flow.values() - exact.values()).max() < 1e-6

    def test_optimal_potential_helper(self):
        network = two_link_network(beta=2.0)
        assert optimal_potential(network) == pytest.approx(0.0, abs=1e-8)

    def test_an_unmet_gap_raises_naming_the_network_and_the_gap(self):
        with pytest.raises(RuntimeError, match=r"grid-3x3: duality gap [0-9.e-]+ > tolerance 1e-09"):
            certified_equilibrium(get_instance("grid-3x3"), 1e-9, max_iterations=1)
        with pytest.raises(RuntimeError, match=r"WardropNetwork\(.*\): duality gap"):
            certified_equilibrium(grid_network(3, 3, seed=3), 1e-9, max_iterations=1)
