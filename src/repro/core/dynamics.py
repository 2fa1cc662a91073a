"""The fluid-limit dynamics within one phase: the stale-phase kernel and the integrators.

The paper studies the dynamics in the fluid limit: the population shares
evolve according to the ordinary differential equation (Eq. 1)

    d f_P / dt = sum_Q (rho_QP(f) - rho_PQ(f)),

and, under stale information, its bulletin-board variant (Eq. 3) in which the
sampling/migration probabilities are evaluated at the posted state ``f(t_hat)``.
Within a phase the right-hand side is Lipschitz continuous, so the solution
exists and is unique (Picard--Lindelöf); across phase boundaries it may jump,
which is why no step ever crosses a boundary.

Within a stale phase the rates ``f_P sigma_PQ mu_PQ`` are linear in the live
flow, so each commodity block solves ``df/dt = f Lambda`` for the generator
of :func:`rate_generator` and the phase ends exactly at
``f(t_hat) expm(d Lambda)``.  :func:`transition_blocks` computes that
exponential for a batch of rows: the fluid engine (and with it column
generation and best response) multiplies the flow by it, and the
finite-population engine draws its stale phases' multinomials from it.

Up-to-date phases (Eq. 1) have no closed form.  The integrators here are
deliberately simple, explicit schemes (Euler and the classical Runge--Kutta
4) operating on a ``(B, P)`` stack of path-flow vectors, one row per
independent replica; a single run is the one-row case.
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

# Poisson(x <= 1/2) terms of the uniformized exponential (see
# :func:`transition_blocks`); the tail beyond them is below 1e-16.
SERIES_TERMS = 14


def rate_generator(rates: np.ndarray) -> np.ndarray:
    """Return ``Lambda = R - diag(row sums of R)`` for zero-diagonal rate blocks ``R``, in place."""
    slots = np.arange(rates.shape[-1])
    rates[..., slots, slots] = -rates.sum(axis=-1)
    return rates


def transition_blocks(generator: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Return ``expm(d_r * generator_r)`` for every row ``r``, row-stochastic.

    Uniformization with scaling and squaring: with ``q`` the row's largest
    exit rate, ``S = I + generator / q`` is stochastic and
    ``expm(h * generator)`` is the ``Poisson(q h)`` mixture of the powers of
    ``S``.  Each row halves its phase ``s_r`` times until ``q h <= 1/2``,
    where :data:`SERIES_TERMS` terms leave a tail below 1e-16, and squares
    the sum back ``s_r`` times.  ``s_r`` comes from the row's own ``q d``,
    so a row's matrix does not depend on the rows batched with it.  Every
    entry is a sum of non-negative terms; the rows are renormalised to 1.
    """
    rows, width = len(generator), generator.shape[-1]
    slots = np.arange(width)
    exit_rates = -generator[..., slots, slots].reshape(rows, -1)
    rate = exit_rates.max(axis=1, initial=0.0)
    scale = rate * durations
    _, exponent = np.frexp(scale)
    squarings = np.where(scale > 0, np.maximum(exponent + 1, 0), 0)
    mean = np.ldexp(scale, -squarings)[:, None, None, None]
    stochastic = generator / np.where(rate > 0, rate, 1.0)[:, None, None, None]
    stochastic[..., slots, slots] += 1.0
    weight = np.exp(-mean)
    power = np.broadcast_to(np.eye(width), generator.shape).copy()
    transitions = weight * power
    for term in range(1, SERIES_TERMS + 1):
        power = power @ stochastic
        weight = weight * mean / term
        transitions += weight * power
    for step in range(int(squarings.max(initial=0))):
        due = squarings > step
        transitions[due] = transitions[due] @ transitions[due]
    return transitions / transitions.sum(axis=-1, keepdims=True)


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
