"""Nonstationary scenarios: time-varying demand, incidents, moving equilibria.

Every workload elsewhere in the reproduction is stationary -- fixed demand
rate, fixed latency coefficients -- but the paper's claim that adaptive
sampling policies converge despite *stale* information earns its keep
precisely when the environment drifts and the dynamics must chase a moving
equilibrium.  This package supplies that workload class:

* :mod:`~repro.scenarios.schedule` -- demand and latency-coefficient
  profiles over time (piecewise-constant, piecewise-linear ramps, periodic
  peaks) with a vectorised ``at``/``at_batch`` evaluation API,
* :mod:`~repro.scenarios.incidents` -- link capacity drops and closures on
  time windows,
* :mod:`~repro.scenarios.scenario` -- :class:`Scenario`, which compiles the
  effects into per-edge ``(gain, stretch, offset)`` modulations applied at
  phase boundaries, and :class:`ScenarioEnsemble`, its batched counterpart
  applying every row's modulation as ``(B, E)`` arrays around one
  :class:`~repro.wardrop.latency.EdgeLatencyTable`,
* :mod:`~repro.scenarios.tracking` -- per-interval ground-truth equilibria
  (path-space projection gradient or edge-flow Frank--Wolfe) and the
  tracking metrics
  (:func:`tracking_error`, :func:`time_to_reequilibrate`,
  :func:`tracking_regret`),
* :mod:`~repro.scenarios.presets` -- the named scenario catalogue
  (``morning-peak``, ``braess-closure``, ``sioux-falls-incident``) behind
  the CLI's ``--scenario`` flag.

All engines accept scenarios: the fluid
:class:`~repro.batch.engine.BatchSimulator` behind ``simulate`` (whose rows
may carry *different* scenarios -- an incident-timing sweep runs as one
ensemble, each row bit-identical to its one-row run), the finite-agent
simulator, plus column generation (both ``simulate_with_column_generation``
variants), which re-seeds routes around closures.
"""

from .incidents import DEFAULT_CLOSURE_PENALTY, IncidentPlan, LinkIncident
from .presets import ScenarioBuilder, available_scenarios, get_scenario, register_scenario
from .scenario import Modulation, Scenario, ScenarioEnsemble
from .schedule import (
    CoefficientSchedule,
    ConstantSchedule,
    DemandSchedule,
    PeriodicSchedule,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    Schedule,
    peak_schedule,
)
from .tracking import (
    EquilibriumTrack,
    IntervalEquilibrium,
    interval_equilibria,
    time_to_reequilibrate,
    tracking_error,
    tracking_regret,
)

__all__ = [
    "CoefficientSchedule",
    "ConstantSchedule",
    "DEFAULT_CLOSURE_PENALTY",
    "DemandSchedule",
    "EquilibriumTrack",
    "IncidentPlan",
    "IntervalEquilibrium",
    "LinkIncident",
    "Modulation",
    "PeriodicSchedule",
    "PiecewiseConstantSchedule",
    "PiecewiseLinearSchedule",
    "Scenario",
    "ScenarioBuilder",
    "ScenarioEnsemble",
    "Schedule",
    "available_scenarios",
    "get_scenario",
    "interval_equilibria",
    "peak_schedule",
    "register_scenario",
    "time_to_reequilibrate",
    "tracking_error",
    "tracking_regret",
]
