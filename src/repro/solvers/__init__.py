"""Baseline equilibrium solvers used as ground truth for the dynamics.

The adaptive rerouting policies of the paper converge to Wardrop equilibria;
these solvers compute the same equilibria by classical convex optimisation
so that the dynamics can be validated against them.  Two interfaces, four
interchangeable methods (see :mod:`repro.solvers.options` for the table):

* **path space** (enumerable instances): classical Frank--Wolfe on the
  Beckmann potential (``method="fw"``) and path-based projection gradient
  (``method="pg"``), both through :func:`solve_wardrop_equilibrium`;
* **edge space** (road networks, no path enumeration): plain, conjugate and
  biconjugate Frank--Wolfe (``method="fw" | "cfw" | "bfw"``) through
  :func:`solve_edge_flow_equilibrium`;
* **exact**: water-filling for parallel links.
"""

from .edge_frank_wolfe import (
    EdgeEquilibriumResult,
    relative_duality_gap,
    solve_edge_flow_equilibrium,
)
from .frank_wolfe import (
    EquilibriumResult,
    all_or_nothing_flow,
    duality_gap,
    optimal_potential,
    solve_wardrop_equilibrium,
)
from .line_search import bisection_root, golden_section_minimise
from .options import ALL_METHODS, EDGE_METHODS, PATH_METHODS, check_method
from .parallel_links import equilibrium_latency_level, solve_parallel_links
from .projection_gradient import solve_path_projection_gradient

__all__ = [
    "ALL_METHODS",
    "EDGE_METHODS",
    "EdgeEquilibriumResult",
    "EquilibriumResult",
    "PATH_METHODS",
    "all_or_nothing_flow",
    "bisection_root",
    "check_method",
    "duality_gap",
    "equilibrium_latency_level",
    "golden_section_minimise",
    "optimal_potential",
    "relative_duality_gap",
    "solve_edge_flow_equilibrium",
    "solve_parallel_links",
    "solve_path_projection_gradient",
    "solve_wardrop_equilibrium",
]
