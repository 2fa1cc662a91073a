"""Numerical integration of the fluid-limit dynamics.

The paper studies the dynamics in the fluid limit: the population shares
evolve according to the ordinary differential equation (Eq. 1)

    d f_P / dt = sum_Q (rho_QP(f) - rho_PQ(f)),

and, under stale information, its bulletin-board variant (Eq. 3) in which the
sampling/migration probabilities are evaluated at the posted state ``f(t_hat)``.
Within a phase the right-hand side is Lipschitz continuous, so the solution
exists and is unique (Picard--Lindelöf); across phase boundaries it may jump,
which is why the integrator never steps over a boundary.

The integrators here are deliberately simple, explicit schemes (Euler and the
classical Runge--Kutta 4) operating on a ``(B, P)`` stack of path-flow
vectors, one row per independent replica; a single run is the one-row case.
Because every row may have its own bulletin-board period, the step size may
be a per-row column ``(B, 1)`` (a plain scalar also works).  The growth rates
sum to zero within every commodity by construction, so demand feasibility is
preserved exactly; tiny negative flows from discretisation are clipped at
phase boundaries via ``FlowVector.project_batch``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

RateField = Callable[[float, np.ndarray], np.ndarray]


def euler_step_batch(field: RateField, time, state: np.ndarray, step) -> np.ndarray:
    """Advance a ``(B, P)`` batch one explicit-Euler step of per-row size ``step``."""
    return state + step * field(time, state)


def rk4_step_batch(field: RateField, time, state: np.ndarray, step) -> np.ndarray:
    """Advance a ``(B, P)`` batch one classical RK4 step of per-row size ``step``."""
    k1 = field(time, state)
    k2 = field(time + 0.5 * step, state + 0.5 * step * k1)
    k3 = field(time + 0.5 * step, state + 0.5 * step * k2)
    k4 = field(time + step, state + step * k3)
    return state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_BATCH_STEPPERS = {
    "euler": euler_step_batch,
    "rk4": rk4_step_batch,
}


def batch_stepper_for(method: str):
    """Return the batched stepper for ``method`` ('euler' or 'rk4')."""
    try:
        return _BATCH_STEPPERS[method]
    except KeyError as error:
        raise ValueError(f"unknown integration method {method!r}; use 'euler' or 'rk4'") from error
