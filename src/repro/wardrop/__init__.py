"""The Wardrop routing substrate: networks, flows, potential and equilibria.

This subpackage implements the model of Section 2.1 of Fischer & Vöcking,
"Adaptive routing with stale information": directed multigraphs with
continuous non-decreasing latency functions, commodities with normalised
demands, path-flow vectors, the Beckmann--McGuire--Winsten potential and the
exact and approximate Wardrop-equilibrium notions used by the convergence
theorems.
"""

from .commodity import Commodity, demands_are_normalised, normalise_demands, total_demand
from .flow import FlowVector, average_latencies, max_used_latencies
from .latency import (
    AffineLatency,
    BPRLatency,
    ConstantLatency,
    EdgeLatencyTable,
    LatencyFunction,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PiecewiseLinearLatency,
    PolynomialLatency,
    ScaledLatency,
    SumLatency,
    ThresholdLatency,
)
from .family import NetworkFamily, topology_signature
from .network import LATENCY_ATTR, WardropNetwork
from .paths import Path, PathSet, build_path_set, enumerate_commodity_paths
from .potential import (
    PotentialDecomposition,
    decompose_phase,
    error_terms,
    potential,
    potential_gap,
    potentials,
    virtual_potential_gain,
)
from .equilibrium import (
    EquilibriumReport,
    equilibrium_violation,
    equilibrium_violations,
    is_approximate_equilibrium,
    is_wardrop_equilibrium,
    is_weak_approximate_equilibrium,
    report,
    support,
    unsatisfied_volume,
    unsatisfied_volumes,
    weakly_unsatisfied_volume,
    weakly_unsatisfied_volumes,
)
from .social_cost import (
    MarginalCostLatency,
    marginal_cost_network,
    optimal_flow,
    price_of_anarchy,
    social_cost,
)
from .validation import InstanceValidationError, ValidationReport, assert_valid, validate_network

__all__ = [
    "AffineLatency",
    "BPRLatency",
    "Commodity",
    "ConstantLatency",
    "EdgeLatencyTable",
    "EquilibriumReport",
    "FlowVector",
    "InstanceValidationError",
    "LATENCY_ATTR",
    "LatencyFunction",
    "LinearLatency",
    "MM1Latency",
    "MarginalCostLatency",
    "MonomialLatency",
    "NetworkFamily",
    "Path",
    "PathSet",
    "PiecewiseLinearLatency",
    "PolynomialLatency",
    "PotentialDecomposition",
    "ScaledLatency",
    "SumLatency",
    "ThresholdLatency",
    "ValidationReport",
    "WardropNetwork",
    "assert_valid",
    "average_latencies",
    "build_path_set",
    "decompose_phase",
    "demands_are_normalised",
    "enumerate_commodity_paths",
    "equilibrium_violation",
    "equilibrium_violations",
    "error_terms",
    "is_approximate_equilibrium",
    "is_wardrop_equilibrium",
    "is_weak_approximate_equilibrium",
    "marginal_cost_network",
    "max_used_latencies",
    "normalise_demands",
    "optimal_flow",
    "potential",
    "potential_gap",
    "potentials",
    "price_of_anarchy",
    "report",
    "social_cost",
    "support",
    "topology_signature",
    "total_demand",
    "unsatisfied_volume",
    "unsatisfied_volumes",
    "validate_network",
    "virtual_potential_gain",
    "weakly_unsatisfied_volume",
    "weakly_unsatisfied_volumes",
]
