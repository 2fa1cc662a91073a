"""One-dimensional line search used by the edge-flow Frank--Wolfe solver.

The Frank--Wolfe step minimises the Beckmann potential along the segment
between the current flow and the direction endpoint.  The potential is convex
along that segment, so its minimiser is the root of the directional
derivative, which the closed-form latencies give exactly; bisection finds it.
"""

from __future__ import annotations

from typing import Callable


def bisection_root(
    derivative: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """Return the minimiser of a convex function given its derivative.

    If the derivative is non-negative at ``lo`` the minimiser is ``lo``; if it
    is non-positive at ``hi`` the minimiser is ``hi``; otherwise bisect for
    the root of the derivative.
    """
    if hi < lo:
        raise ValueError("bisection interval is empty")
    if derivative(lo) >= 0.0:
        return lo
    if derivative(hi) <= 0.0:
        return hi
    a, b = lo, hi
    for _ in range(max_iterations):
        mid = 0.5 * (a + b)
        if b - a <= tolerance:
            return mid
        if derivative(mid) > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
