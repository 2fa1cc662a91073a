"""The solver method table and its validator.

The equilibrium suite now offers several interchangeable algorithms behind
the two solver interfaces:

========  =====================  ===========================================
method    space                  algorithm
========  =====================  ===========================================
``fw``    path + edge            classical Frank--Wolfe (all-or-nothing
                                 direction, exact line search)
``cfw``   edge                   conjugate-direction Frank--Wolfe
                                 (Mitradjieva--Lindberg): the direction
                                 endpoint is a Hessian-conjugate convex
                                 combination of the new all-or-nothing point
                                 and the previous endpoint
``bfw``   edge                   biconjugate Frank--Wolfe: conjugate to the
                                 *two* previous search directions
``pg``    path                   path-based projection gradient
                                 (Newton-scaled flow shifts onto each
                                 commodity's cheapest path)
========  =====================  ===========================================

:func:`check_method` validates a method name against one space.
"""

from __future__ import annotations

#: Methods available to the edge-flow (oracle-driven) solver.
EDGE_METHODS = ("fw", "cfw", "bfw")

#: Methods available to the path-based solver on enumerable instances.
PATH_METHODS = ("fw", "pg")

#: Every method the suite knows, in display order.
ALL_METHODS = ("fw", "cfw", "bfw", "pg")


def check_method(method: str, space: str) -> str:
    """Validate ``method`` against a solver space (``"path"`` or ``"edge"``).

    Returns the method unchanged so calls can inline the check.
    """
    known = EDGE_METHODS if space == "edge" else PATH_METHODS
    if method not in known:
        raise ValueError(
            f"unknown {space}-space solver method {method!r}; "
            f"use one of {', '.join(known)}"
        )
    return method
