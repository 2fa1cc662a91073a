"""The fluid-limit dynamics within one phase: the stale-phase kernel and the fresh-row step.

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

Up-to-date phases (Eq. 1) have no closed form.  :func:`dormand_prince_step`
attempts one step of the embedded Runge--Kutta pair of Dormand & Prince
(1980), the 5(4) scheme ``scipy.integrate.solve_ivp`` uses by default, on a
``(R, P)`` stack of path flows, one row per replica, with a per-row step and
a per-row error norm; the field is autonomous within a phase (its
environment is frozen at the phase start), so the step takes no clock.  The
growth rates sum to zero within every commodity, so every stage keeps the
demand up to round-off; tiny negative flows are clipped at phase boundaries.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Field = Callable[[np.ndarray], np.ndarray]

# Error control of fresh rows: a step is accepted when the RMS over a row's
# paths of ``error / (ATOL * demand + RTOL * |f|)`` is at most 1 (``demand``
# is the path's commodity demand); the next step is the last one times
# ``SAFETY * norm ** (-1/5)``, clipped to ``[MIN_FACTOR, MAX_FACTOR]``.
RTOL = 1e-10
ATOL = 1e-12
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0

# The Dormand--Prince 5(4) tableau: stages, fifth-order weights and the error
# weights (fifth minus fourth order; the last is on the slope at the new state).
DP_STAGES = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
DP_WEIGHTS = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
DP_ERROR = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)

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


def _weighted(coefficients, slopes):
    """Return ``sum_i c_i k_i`` over the nonzero coefficients."""
    return sum(c * k for c, k in zip(coefficients, slopes) if c)


def dormand_prince_step(
    field: Field, state: np.ndarray, slope: np.ndarray, step: np.ndarray, demands: np.ndarray
):
    """Attempt one Dormand--Prince 5(4) step of per-row size ``step`` from ``state``.

    ``slope`` is ``field(state)``, ``step`` a ``(R, 1)`` column and
    ``demands`` each path's commodity demand.  Returns the fifth-order ``(R, P)``
    proposal, the slope there (which an accepted step hands to the next one)
    and each row's ``(R,)`` error norm: at most 1 when the step is accepted,
    NaN when a stage was not finite.
    """
    slopes = [slope]
    for coefficients in DP_STAGES:
        slopes.append(field(state + step * _weighted(coefficients, slopes)))
    proposal = state + step * _weighted(DP_WEIGHTS, slopes)
    slopes.append(field(proposal))
    error = step * _weighted(DP_ERROR, slopes)
    return proposal, slopes[-1], error_norms(error, state, proposal, demands)


def error_norms(error, state, proposal, demands):
    """Return each row's RMS over its paths of ``error / (ATOL * demand + RTOL * |f|)``."""
    weights = ATOL * demands + RTOL * np.maximum(np.abs(state), np.abs(proposal))
    return np.sqrt(np.mean(np.square(error / weights), axis=-1))


def step_factors(norms: np.ndarray) -> np.ndarray:
    """Return the factor each row's step changes by; a NaN norm gives ``MIN_FACTOR``."""
    with np.errstate(divide="ignore"):
        return np.fmin(MAX_FACTOR, np.fmax(MIN_FACTOR, SAFETY * norms ** -0.2))


def batch_stepper_for(name: str):
    """Return the fresh-row stepper, :func:`dormand_prince_step` (``"dopri5"``).

    The engine looks it up here, so a profiler can wrap it by patching this name.
    """
    if name != "dopri5":
        raise ValueError(f"unknown stepper {name!r}; the only one is 'dopri5'")
    return dormand_prince_step
