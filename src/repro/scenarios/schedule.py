"""Time profiles for nonstationary scenarios: demand and coefficient schedules.

A :class:`Schedule` maps simulation time to a non-negative multiplier.  The
scenario layer samples schedules at *phase boundaries* (the instants at which
new information can reach the system in the paper's model), so a schedule
only needs to answer two questions:

* ``at(t)`` / ``at_batch(times)`` -- the multiplier at one time or at a whole
  array of per-row times (the batched engine evaluates all ensemble rows in
  one call), and
* ``breakpoints(start, end)`` -- the instants inside ``[start, end)`` where
  the profile changes non-smoothly.  The equilibrium-tracking toolkit
  (:mod:`repro.scenarios.tracking`) solves one ground-truth equilibrium per
  breakpoint interval.

``at`` delegates to ``at_batch`` on a length-one array, so the scalar and the
batched engines see the exact same floating-point values -- part of the
bit-equivalence contract between them.

:class:`DemandSchedule` and :class:`CoefficientSchedule` attach a profile to
its physical meaning: rescaling the total demand rate (every edge sees the
stretched flow ``m(t) * x``) or rescaling latency coefficients (selected
edges return ``g(t) * l(x)``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..wardrop.latency import _finite


def _finite_values(name: str, values: np.ndarray, minimum: float = 0.0) -> None:
    """Raise naming ``name[i]`` unless every entry is finite and ``>= minimum``."""
    for index, value in enumerate(values):
        _finite(f"{name}[{index}]", value, minimum=minimum)


class Schedule(ABC):
    """A non-negative multiplier profile over simulation time."""

    @abstractmethod
    def at_batch(self, times: np.ndarray) -> np.ndarray:
        """Return the multiplier at every time of a ``(R,)`` array."""

    @abstractmethod
    def breakpoints(self, start: float, end: float) -> List[float]:
        """Return the non-smooth change instants inside ``[start, end)``.

        ``start`` itself is never included (the caller already evaluates
        there); the list is strictly increasing.
        """

    def at(self, t: float) -> float:
        """Return the multiplier at one time (same arithmetic as the batch)."""
        return float(self.at_batch(np.array([float(t)]))[0])

    def is_constant(self) -> bool:
        """True if the profile never changes (the stationary special case)."""
        return False


class ConstantSchedule(Schedule):
    """The stationary profile ``m(t) = value``."""

    def __init__(self, value: float = 1.0):
        self.value = _finite("value", value)

    def at_batch(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.value, dtype=float)

    def breakpoints(self, start: float, end: float) -> List[float]:
        return []

    def is_constant(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"ConstantSchedule({self.value})"


class PiecewiseConstantSchedule(Schedule):
    """A step profile: ``values[i]`` on ``[times[i-1], times[i])``.

    ``times`` are the strictly increasing step instants and ``values`` has
    one more entry than ``times`` (the leading value applies before the first
    step).  This is the workhorse of the equivalence tests: applying a
    piecewise-constant schedule through the scenario layer is bit-identical
    to manually restarting a stationary simulation with rescaled latencies at
    every step instant.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        self.times = np.asarray(list(times), dtype=float)
        self.values = np.asarray(list(values), dtype=float)
        if len(self.values) != len(self.times) + 1:
            raise ValueError(
                f"{len(self.times)} step instants need {len(self.times) + 1} "
                f"values, got {len(self.values)}"
            )
        _finite_values("times", self.times, minimum=-math.inf)
        _finite_values("values", self.values)
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("step instants must be strictly increasing")

    def at_batch(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return self.values[np.searchsorted(self.times, times, side="right")]

    def breakpoints(self, start: float, end: float) -> List[float]:
        return [float(t) for t in self.times if start < t < end]

    def is_constant(self) -> bool:
        return len(self.times) == 0 or bool(np.all(self.values == self.values[0]))

    def __repr__(self) -> str:
        return f"PiecewiseConstantSchedule(times={self.times.tolist()}, values={self.values.tolist()})"


class PiecewiseLinearSchedule(Schedule):
    """A continuous ramp profile interpolating ``(times[i], values[i])``.

    Clamped outside the knot range (the first/last value extends).  Between
    knots the profile changes every phase, so there are no discontinuity
    breakpoints beyond the knots themselves (reported for the tracking
    toolkit, which refines its interval grid with ``sample_every``).
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        self.times = np.asarray(list(times), dtype=float)
        self.values = np.asarray(list(values), dtype=float)
        if len(self.times) < 2 or len(self.times) != len(self.values):
            raise ValueError("need matching times/values with at least two knots")
        _finite_values("times", self.times, minimum=-math.inf)
        _finite_values("values", self.values)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("knot times must be strictly increasing")

    def at_batch(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return np.interp(times, self.times, self.values)

    def breakpoints(self, start: float, end: float) -> List[float]:
        return [float(t) for t in self.times if start < t < end]

    def is_constant(self) -> bool:
        return bool(np.all(self.values == self.values[0]))

    def __repr__(self) -> str:
        return f"PiecewiseLinearSchedule(times={self.times.tolist()}, values={self.values.tolist()})"


class PeriodicSchedule(Schedule):
    """A profile repeating every ``period`` time units (daily peak cycles)."""

    def __init__(self, profile: Schedule, period: float):
        self.profile = profile
        self.period = _finite("period", period, strict=True)

    def at_batch(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return self.profile.at_batch(np.mod(times, self.period))

    def breakpoints(self, start: float, end: float) -> List[float]:
        if end <= start:
            return []
        inner = self.profile.breakpoints(0.0, self.period)
        first_cycle = int(np.floor(start / self.period))
        last_cycle = int(np.floor(end / self.period))
        points = []
        for cycle in range(first_cycle, last_cycle + 1):
            base = cycle * self.period
            for t in [0.0] + inner:
                instant = base + t
                if start < instant < end:
                    points.append(float(instant))
        return sorted(set(points))

    def is_constant(self) -> bool:
        return self.profile.is_constant()

    def __repr__(self) -> str:
        return f"PeriodicSchedule({self.profile!r}, period={self.period})"


def peak_schedule(
    base: float,
    peak: float,
    start: float,
    end: float,
    ramp: float,
) -> PiecewiseLinearSchedule:
    """Return a trapezoidal peak profile (the morning-rush shape).

    The multiplier sits at ``base``, ramps linearly to ``peak`` over ``ramp``
    time units starting at ``start``, holds until ``end``, and ramps back
    down over another ``ramp``.
    """
    if end <= start:
        raise ValueError("peak window must have positive length")
    if ramp <= 0:
        raise ValueError("ramp must be positive")
    return PiecewiseLinearSchedule(
        times=[start, start + ramp, end, end + ramp],
        values=[base, peak, peak, base],
    )


class DemandSchedule:
    """A time-varying total demand rate, as a multiplier of the unit demand.

    The paper normalises total demand to one and defines latencies on flow
    *shares*; a demand multiplier ``m(t)`` therefore acts by stretching every
    latency argument -- a share ``x`` experiences the latency of the absolute
    flow ``m(t) * x``.  Multipliers must be strictly positive (a zero-demand
    interval has no routing problem to track).
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule

    def multiplier_at(self, t: float) -> float:
        value = self.schedule.at(t)
        if value <= 0:
            raise ValueError(f"demand multiplier must stay positive, got {value} at t={t}")
        return value

    def breakpoints(self, start: float, end: float) -> List[float]:
        return self.schedule.breakpoints(start, end)

    def __repr__(self) -> str:
        return f"DemandSchedule({self.schedule!r})"


class CoefficientSchedule:
    """A time-varying latency-coefficient multiplier on selected edges.

    ``edges`` lists the affected edge triples ``(u, v, key)``; ``None`` means
    every edge of the instance (a network-wide latency rescale, e.g. weather
    slowing all links down).  The multiplier scales latency *values*:
    ``l_e(x) -> g(t) * l_e(x)``.
    """

    def __init__(self, schedule: Schedule, edges: Optional[Sequence[Tuple]] = None):
        self.schedule = schedule
        self.edges = None if edges is None else [tuple(edge) for edge in edges]

    def gain_at(self, t: float) -> float:
        return self.schedule.at(t)

    def breakpoints(self, start: float, end: float) -> List[float]:
        return self.schedule.breakpoints(start, end)

    def __repr__(self) -> str:
        scope = "all edges" if self.edges is None else f"{len(self.edges)} edges"
        return f"CoefficientSchedule({self.schedule!r}, {scope})"
