"""Equilibrium solvers: the references the dynamics are checked against.

The adaptive rerouting policies of the paper converge to Wardrop equilibria;
these solvers compute the same equilibria by classical convex optimisation
so that the dynamics can be validated against them:

* **path space** (enumerable instances): path-based projection gradient
  through :func:`solve_wardrop_equilibrium`, certified by the absolute
  duality gap; :func:`optimal_potential` returns ``Phi*`` only when the gap
  is met and raises otherwise;
* **edge space** (road networks, no path enumeration): plain, conjugate and
  biconjugate Frank--Wolfe (``method="fw" | "cfw" | "bfw"``, the table
  :data:`EDGE_METHODS`) through :func:`solve_edge_flow_equilibrium`,
  certified by the relative duality gap;
* **exact**: water-filling for parallel links.
"""

from .edge_frank_wolfe import (
    EDGE_METHODS,
    EdgeEquilibriumResult,
    check_method,
    relative_duality_gap,
    solve_edge_flow_equilibrium,
)
from .line_search import bisection_root
from .parallel_links import equilibrium_latency_level, solve_parallel_links
from .projection_gradient import (
    EquilibriumResult,
    all_or_nothing_flow,
    duality_gap,
    optimal_potential,
    solve_wardrop_equilibrium,
)

__all__ = [
    "EDGE_METHODS",
    "EdgeEquilibriumResult",
    "EquilibriumResult",
    "all_or_nothing_flow",
    "bisection_root",
    "check_method",
    "duality_gap",
    "equilibrium_latency_level",
    "optimal_potential",
    "relative_duality_gap",
    "solve_edge_flow_equilibrium",
    "solve_parallel_links",
    "solve_wardrop_equilibrium",
]
