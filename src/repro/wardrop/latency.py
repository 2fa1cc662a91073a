"""Latency function library for the Wardrop routing model.

The paper assumes edge latency functions ``l_e : [0, 1] -> R>=0`` that are
continuous, non-decreasing and have a finite first derivative on the whole
range.  The central quantity used by the theory is ``beta``, an upper bound
on the slope of every latency function in the network: the safe bulletin
board update period of Lemma 4 is ``T* = 1 / (4 * D * alpha * beta)``.

Every latency function in this module therefore exposes three operations:

* ``value(x)``        -- the latency at flow ``x``,
* ``derivative(x)``   -- the exact first derivative at flow ``x``,
* ``max_slope(lo, hi)`` -- a tight upper bound on the derivative over an
  interval, used to compute the network constant ``beta``.

In addition ``integral(x)`` returns the exact value of
``int_0^x l_e(u) du`` which is the edge contribution to the
Beckmann--McGuire--Winsten potential; having it in closed form keeps the
potential computation exact rather than quadrature based.

Each built-in class writes ``value``, ``derivative`` and ``integral`` once,
in numpy array arithmetic: its coefficient fields may be floats (one
function) or arrays (one entry per cell of a table), and ``x`` may be a float
or an array broadcasting against them.  :class:`EdgeLatencyTable` builds on
this to evaluate a whole grid of latency functions -- one network's edges, or
every member of a family -- with one call per group of same-class cells, and
performs exactly the floating-point operations of the scalar call.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np


def _finite(name: str, value: float, minimum: float = 0.0, strict: bool = False) -> float:
    """Return ``value`` as a float, or raise naming ``name`` if it is out of range.

    ``value >= minimum`` (``> minimum`` when ``strict``) and finiteness are
    checked together: a bare ``value < 0`` guard is False for NaN and would
    let it through.  ``minimum=-inf`` checks finiteness alone.
    """
    value = float(value)
    in_range = value > minimum if strict else value >= minimum
    if not (math.isfinite(value) and in_range):
        bound = "" if minimum == -math.inf else f" and {'>' if strict else '>='} {minimum}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return value


def _exponent(name: str, value: float) -> int:
    """Return a positive integer exponent, or raise naming ``name``.

    Exponents select a table group and the multiplication chain of
    :func:`_int_pow`, so a non-integral value is rejected rather than
    truncated.
    """
    value = _finite(name, value, minimum=1.0)
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _int_pow(x, exponent: int):
    """Return ``x ** exponent`` by binary exponentiation (scalars or arrays).

    Numpy's vectorised pow kernel and the scalar ``float ** int`` (libm) pow
    disagree by an ulp on a few percent of inputs, which would break the
    bit-for-bit contract between a scalar call and a table evaluation
    wherever a latency uses an integer power (BPR, monomials).  Binary
    exponentiation performs the *same* multiplication sequence elementwise
    whether ``x`` is a float or an array, so both produce identical bits --
    and for the small exponents of road latencies (BPR beta = 4 is two
    squarings) it is faster than pow as well.
    """
    exponent = int(exponent)
    result = None
    base = x
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            break
        base = base * base
    if result is None:  # exponent == 0
        return x * 0 + 1.0
    return result


class LatencyFunction(ABC):
    """A continuous, non-decreasing latency function on ``[0, 1]``.

    Subclasses implement the latency value, its derivative and its
    antiderivative in closed form.  All functions must be non-decreasing and
    non-negative on the unit interval; :meth:`validate` spot-checks this and
    is used by the instance validators.
    """

    # Coefficient fields an EdgeLatencyTable stacks into per-cell arrays.
    # Only classes that declare this themselves are stacked (a subclass may
    # override the arithmetic); every other function is evaluated by the
    # table's per-cell loop.
    _stacked_fields: Optional[Tuple[str, ...]] = None

    @abstractmethod
    def value(self, x: float) -> float:
        """Return the latency induced by flow ``x``."""

    @abstractmethod
    def derivative(self, x: float) -> float:
        """Return the first derivative of the latency at flow ``x``."""

    @abstractmethod
    def integral(self, x: float) -> float:
        """Return ``int_0^x value(u) du`` (the potential contribution)."""

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Return an upper bound on the derivative over ``[lo, hi]``.

        The default implementation assumes the derivative is non-decreasing
        (true for all convex latency functions in this library) and returns
        the derivative at the right endpoint.  Subclasses with non-convex
        shapes override this.
        """
        return self.derivative(hi)

    def _structure(self) -> Hashable:
        """Return what, besides the class, must match for cells to stack.

        Integer exponents and coefficient or breakpoint counts fix the shape
        of the arithmetic, so only cells that agree on them share a group.
        """
        return ()

    def __call__(self, x: float) -> float:
        return self.value(x)

    def validate(self, samples: int = 32) -> None:
        """Raise ``ValueError`` if the function is negative or decreasing.

        The check samples the unit interval; it is a guard against
        misconfigured instances, not a proof.
        """
        previous = None
        for i in range(samples + 1):
            x = i / samples
            y = self.value(x)
            if y < -1e-12:
                raise ValueError(f"{self!r} is negative at {x}: {y}")
            if previous is not None and y < previous - 1e-9:
                raise ValueError(f"{self!r} is decreasing near {x}")
            previous = y

    # Combinators ---------------------------------------------------------

    def __add__(self, other: "LatencyFunction") -> "SumLatency":
        return SumLatency([self, other])

    def scaled(self, factor: float) -> "ScaledLatency":
        """Return this latency function multiplied by ``factor >= 0``."""
        return ScaledLatency(self, factor)

    def shifted(self, offset: float) -> "SumLatency":
        """Return this latency function plus a constant ``offset >= 0``."""
        return SumLatency([self, ConstantLatency(offset)])


class ConstantLatency(LatencyFunction):
    """A flow-independent latency ``l(x) = c`` (e.g. propagation delay)."""

    _stacked_fields = ("constant",)

    def __init__(self, constant: float):
        self.constant = _finite("constant", constant)

    def value(self, x: float) -> float:
        return self.constant

    def derivative(self, x: float) -> float:
        return 0.0

    def integral(self, x: float) -> float:
        return self.constant * x

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"ConstantLatency({self.constant})"


class LinearLatency(LatencyFunction):
    """A homogeneous linear latency ``l(x) = a * x``."""

    _stacked_fields = ("coefficient",)

    def __init__(self, coefficient: float = 1.0):
        self.coefficient = _finite("coefficient", coefficient)

    def value(self, x: float) -> float:
        return self.coefficient * x

    def derivative(self, x: float) -> float:
        return self.coefficient

    def integral(self, x: float) -> float:
        return 0.5 * self.coefficient * x * x

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.coefficient

    def __repr__(self) -> str:
        return f"LinearLatency({self.coefficient})"


class AffineLatency(LatencyFunction):
    """An affine latency ``l(x) = a * x + b`` with ``a, b >= 0``."""

    _stacked_fields = ("slope", "intercept")

    def __init__(self, slope: float, intercept: float):
        self.slope = _finite("slope", slope)
        self.intercept = _finite("intercept", intercept)

    def value(self, x: float) -> float:
        return self.slope * x + self.intercept

    def derivative(self, x: float) -> float:
        return self.slope

    def integral(self, x: float) -> float:
        return 0.5 * self.slope * x * x + self.intercept * x

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.slope

    def __repr__(self) -> str:
        return f"AffineLatency(slope={self.slope}, intercept={self.intercept})"


class PolynomialLatency(LatencyFunction):
    """A polynomial latency ``l(x) = sum_d c_d * x**d`` with ``c_d >= 0``.

    Non-negative coefficients guarantee monotonicity on ``[0, 1]``; this is
    the standard class of latency functions used throughout the price of
    anarchy literature (Roughgarden & Tardos).
    """

    _stacked_fields = ("coefficients",)

    def __init__(self, coefficients: Sequence[float]):
        if not coefficients:
            raise ValueError("polynomial latency requires at least one coefficient")
        self.coefficients = [
            _finite(f"coefficients[{i}]", c) for i, c in enumerate(coefficients)
        ]

    def _structure(self) -> Hashable:
        return len(self.coefficients)

    def value(self, x: float) -> float:
        total = 0.0
        power = 1.0
        for coefficient in self.coefficients:
            total = total + coefficient * power
            power = power * x
        return total

    def derivative(self, x: float) -> float:
        total = 0.0
        power = 1.0
        for degree, coefficient in enumerate(self.coefficients):
            if degree >= 1:
                total = total + degree * coefficient * power
                power = power * x
            # degree 0 contributes nothing; power stays at 1 until degree 1.
        return total

    def integral(self, x: float) -> float:
        total = 0.0
        power = x
        for degree, coefficient in enumerate(self.coefficients):
            total = total + coefficient * power / (degree + 1)
            power = power * x
        return total

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # Non-negative coefficients make the derivative non-decreasing.
        return self.derivative(hi)

    def __repr__(self) -> str:
        return f"PolynomialLatency({self.coefficients})"


class MonomialLatency(LatencyFunction):
    """A monomial latency ``l(x) = a * x**d`` (the Pigou-style nonlinearity)."""

    _stacked_fields = ("coefficient",)

    def __init__(self, coefficient: float = 1.0, degree: int = 1):
        self.coefficient = _finite("coefficient", coefficient)
        self.degree = _exponent("degree", degree)

    def _structure(self) -> Hashable:
        return self.degree

    def value(self, x: float) -> float:
        return self.coefficient * _int_pow(x, self.degree)

    def derivative(self, x: float) -> float:
        return self.coefficient * self.degree * _int_pow(x, self.degree - 1)

    def integral(self, x: float) -> float:
        return self.coefficient * _int_pow(x, self.degree + 1) / (self.degree + 1)

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.derivative(hi)

    def __repr__(self) -> str:
        return f"MonomialLatency({self.coefficient}, degree={self.degree})"


class BPRLatency(LatencyFunction):
    """Bureau of Public Roads latency ``l(x) = t0 * (1 + a * (x / c)**d)``.

    The standard road-traffic latency model; included because Wardrop's model
    originates in road traffic and BPR functions are the canonical workload
    for traffic-assignment solvers.
    """

    _stacked_fields = ("free_flow_time", "capacity", "alpha")

    def __init__(self, free_flow_time: float, capacity: float, alpha: float = 0.15, beta: int = 4):
        self.free_flow_time = _finite("free_flow_time", free_flow_time)
        self.capacity = _finite("capacity", capacity, strict=True)
        self.alpha = _finite("alpha", alpha)
        self.beta = _exponent("beta", beta)

    def _structure(self) -> Hashable:
        return self.beta

    def value(self, x: float) -> float:
        return self.free_flow_time * (1.0 + self.alpha * _int_pow(x / self.capacity, self.beta))

    def derivative(self, x: float) -> float:
        return (
            self.free_flow_time
            * self.alpha
            * self.beta
            * _int_pow(x, self.beta - 1)
            / _int_pow(self.capacity, self.beta)
        )

    def integral(self, x: float) -> float:
        return self.free_flow_time * (
            x
            + self.alpha
            * _int_pow(x, self.beta + 1)
            / ((self.beta + 1) * _int_pow(self.capacity, self.beta))
        )

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.derivative(hi)

    def __repr__(self) -> str:
        return (
            f"BPRLatency(t0={self.free_flow_time}, capacity={self.capacity}, "
            f"alpha={self.alpha}, beta={self.beta})"
        )


class MM1Latency(LatencyFunction):
    """A capped M/M/1 queueing delay ``l(x) = 1 / (c - x)`` for ``x <= x_cap``.

    The raw M/M/1 delay has unbounded slope as ``x`` approaches the capacity
    ``c``; the paper requires a finite slope bound, so the function is
    linearised beyond ``x_cap < c`` (continuing with the tangent at the cap).
    This mirrors how queueing delays are used in practice when a finite
    Lipschitz constant is required.
    """

    _stacked_fields = ("capacity", "cap", "_cap_value", "_cap_slope")

    def __init__(self, capacity: float, cap_fraction: float = 0.9):
        if not (math.isfinite(capacity) and capacity > 1.0):
            raise ValueError(
                f"M/M/1 capacity must be finite and exceed the unit demand (c > 1), got {capacity}"
            )
        if not 0.0 < cap_fraction < 1.0:
            raise ValueError("cap_fraction must lie strictly between 0 and 1")
        self.capacity = float(capacity)
        # Cap point expressed in absolute flow units, never beyond the unit demand.
        self.cap = min(float(cap_fraction) * self.capacity, 1.0)
        self._cap_value = 1.0 / (self.capacity - self.cap)
        self._cap_slope = 1.0 / (self.capacity - self.cap) ** 2

    # The queueing branch is only selected where x <= cap < capacity, so the
    # pole (and the log of a non-positive number) sits in discarded lanes.

    def value(self, x: float) -> float:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            queueing = 1.0 / (self.capacity - x)
        linear = self._cap_value + self._cap_slope * (x - self.cap)
        return np.where(x <= self.cap, queueing, linear)[()]

    def derivative(self, x: float) -> float:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            queueing = 1.0 / (self.capacity - x) ** 2
        return np.where(x <= self.cap, queueing, self._cap_slope)[()]

    def integral(self, x: float) -> float:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            queueing = np.log(self.capacity / (self.capacity - x))
        head = np.log(self.capacity / (self.capacity - self.cap))
        tail = x - self.cap
        linear = head + self._cap_value * tail + 0.5 * self._cap_slope * tail * tail
        return np.where(x <= self.cap, queueing, linear)[()]

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.derivative(min(hi, self.cap)) if hi <= self.cap else self._cap_slope

    def __repr__(self) -> str:
        return f"MM1Latency(capacity={self.capacity}, cap={self.cap})"


class PiecewiseLinearLatency(LatencyFunction):
    """A continuous piecewise-linear latency defined by breakpoints.

    ``breakpoints`` is a list of ``(x, y)`` pairs with strictly increasing
    ``x`` covering ``[0, 1]`` and non-decreasing ``y``.  This class expresses
    the paper's oscillation example ``l(x) = max{0, beta * (x - 1/2)}``
    exactly (see :class:`ThresholdLatency`).  Flows outside the breakpoint
    range extrapolate the first or last segment.
    """

    _stacked_fields = ("xs", "ys", "_slopes")

    def __init__(self, breakpoints: Sequence[tuple]):
        if len(breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        xs = [float(x) for x, _ in breakpoints]
        ys = [float(y) for _, y in breakpoints]
        if xs[0] > 1e-12 or xs[-1] < 1.0 - 1e-12:
            raise ValueError("breakpoints must cover the interval [0, 1]")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint x-coordinates must be strictly increasing")
        if any(b < a - 1e-12 for a, b in zip(ys, ys[1:])):
            raise ValueError("breakpoint y-coordinates must be non-decreasing")
        if not all(math.isfinite(v) for v in xs + ys):
            raise ValueError("breakpoint coordinates must be finite")
        if ys[0] < 0:
            raise ValueError("latency must be non-negative")
        self.xs = xs
        self.ys = ys
        self._slopes = [
            (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)
        ]

    def _structure(self) -> Hashable:
        return len(self.xs)

    def _segment(self, x):
        """Return ``(x_i, y_i, slope_i)`` of the segment containing ``x``.

        The segment is the last ``i <= len(xs) - 2`` with ``xs[i] <= x``
        (segment 0 below the first breakpoint).
        """
        x_lo, y_lo, slope = self.xs[0], self.ys[0], self._slopes[0]
        for i in range(1, len(self.xs) - 1):
            above = x >= self.xs[i]
            x_lo = np.where(above, self.xs[i], x_lo)
            y_lo = np.where(above, self.ys[i], y_lo)
            slope = np.where(above, self._slopes[i], slope)
        return x_lo, y_lo, slope

    def value(self, x: float) -> float:
        x_lo, y_lo, slope = self._segment(x)
        return y_lo + slope * (x - x_lo)

    def derivative(self, x: float) -> float:
        # ``* 1.0`` turns a scalar call's 0-d selection into a float.
        return self._segment(x)[2] * 1.0

    def integral(self, x: float) -> float:
        # Trapezoids of every segment left of x; segments starting at or
        # beyond x have no width and add nothing.
        total = 0.0
        for i in range(len(self.xs) - 1):
            width = np.minimum(x, self.xs[i + 1]) - self.xs[i]
            y_right = self.ys[i] + self._slopes[i] * width
            total = total + np.where(width > 0.0, 0.5 * (self.ys[i] + y_right) * width, 0.0)
        return total

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        best = 0.0
        for i in range(len(self.xs) - 1):
            if self.xs[i + 1] <= lo or self.xs[i] >= hi:
                continue
            best = max(best, self._slopes[i])
        return best

    def __repr__(self) -> str:
        points = list(zip(self.xs, self.ys))
        return f"PiecewiseLinearLatency({points})"


class ThresholdLatency(PiecewiseLinearLatency):
    """The paper's oscillation latency ``l(x) = max{0, beta * (x - threshold)}``.

    Section 3.2 of the paper uses two parallel links with this latency (with
    ``threshold = 1/2``): it is zero below the threshold and rises with slope
    ``beta`` above it, so the Wardrop equilibrium has latency exactly zero.
    """

    _stacked_fields = PiecewiseLinearLatency._stacked_fields

    def __init__(self, beta: float, threshold: float = 0.5):
        beta = _finite("beta", beta)
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")
        self.beta = float(beta)
        self.threshold = float(threshold)
        super().__init__(
            [(0.0, 0.0), (threshold, 0.0), (1.0, beta * (1.0 - threshold))]
        )

    def __repr__(self) -> str:
        return f"ThresholdLatency(beta={self.beta}, threshold={self.threshold})"


class ScaledLatency(LatencyFunction):
    """A latency function multiplied by a non-negative scalar."""

    def __init__(self, base: LatencyFunction, factor: float):
        self.base = base
        self.factor = _finite("factor", factor)

    def value(self, x: float) -> float:
        return self.factor * self.base.value(x)

    def derivative(self, x: float) -> float:
        return self.factor * self.base.derivative(x)

    def integral(self, x: float) -> float:
        return self.factor * self.base.integral(x)

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.factor * self.base.max_slope(lo, hi)

    def __repr__(self) -> str:
        return f"ScaledLatency({self.base!r}, {self.factor})"


class ModulatedLatency(LatencyFunction):
    """A scenario-modulated latency ``l(x) = gain * base(stretch * x) + offset``.

    This is the single primitive every nonstationary-scenario effect compiles
    to (:mod:`repro.scenarios`):

    * a *demand* multiplier ``m`` stretches the flow argument (``stretch = m``:
      a flow share ``x`` experiences the latency of the absolute flow
      ``m * x``),
    * a *capacity drop* to a fraction ``c`` of the original capacity also
      stretches the argument (``stretch = 1 / c`` -- for BPR latencies this is
      exactly a capacity rescale, since BPR depends on flow only through
      ``flow / capacity``),
    * a *coefficient* multiplier scales the latency value (``gain``),
    * a *closure* adds a prohibitive constant (``offset``).

    The identity modulation (``gain = stretch = 1``, ``offset = 0``) is
    float-transparent: ``1.0 * v`` and ``v + 0.0`` reproduce ``v`` bit for bit
    for the non-negative latency values this library produces, so applying
    it to unaffected cells of a table never perturbs them.
    """

    def __init__(self, base: LatencyFunction, gain: float = 1.0, stretch: float = 1.0, offset: float = 0.0):
        self.base = base
        self.gain = _finite("gain", gain)
        self.stretch = _finite("stretch", stretch, strict=True)
        self.offset = _finite("offset", offset)

    def value(self, x: float) -> float:
        return self.gain * self.base.value(self.stretch * x) + self.offset

    def derivative(self, x: float) -> float:
        return self.gain * self.stretch * self.base.derivative(self.stretch * x)

    def integral(self, x: float) -> float:
        return (self.gain / self.stretch) * self.base.integral(self.stretch * x) + self.offset * x

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.gain * self.stretch * self.base.max_slope(
            self.stretch * lo, self.stretch * hi
        )

    def __repr__(self) -> str:
        return (
            f"ModulatedLatency({self.base!r}, gain={self.gain}, "
            f"stretch={self.stretch}, offset={self.offset})"
        )


class SumLatency(LatencyFunction):
    """The pointwise sum of several latency functions."""

    def __init__(self, parts: Sequence[LatencyFunction]):
        if not parts:
            raise ValueError("sum latency requires at least one part")
        self.parts = list(parts)

    def value(self, x: float) -> float:
        return sum(part.value(x) for part in self.parts)

    def derivative(self, x: float) -> float:
        return sum(part.derivative(x) for part in self.parts)

    def integral(self, x: float) -> float:
        return sum(part.integral(x) for part in self.parts)

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return sum(part.max_slope(lo, hi) for part in self.parts)

    def __repr__(self) -> str:
        return f"SumLatency({self.parts!r})"


# The latency table ----------------------------------------------------------


def ordered_sum(values: np.ndarray) -> np.ndarray:
    """Return the sums of ``(..., N)`` values over the last axis, each added left to right.

    ``np.sum`` adds pairwise and rounds differently; adding in order keeps
    every row's sum identical to a plain loop over the same terms, whatever
    the rows stacked with it.  An empty row sums to 0.0.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        # One row is a Python float, as the scalar solvers expect.
        return float(np.cumsum(values)[-1]) if len(values) else 0.0
    return np.cumsum(values, axis=-1)[..., -1]


def _stackable(function: LatencyFunction) -> bool:
    return type(function).__dict__.get("_stacked_fields") is not None


def _stack(functions: Sequence[LatencyFunction]) -> LatencyFunction:
    """Return one instance whose coefficient fields are arrays over ``functions``.

    All functions share one class and structure key.  A field holding one
    float per function becomes an ``(n,)`` array; a list field (polynomial
    coefficients, breakpoints) becomes ``(K, n)``, so iterating it yields one
    ``(n,)`` array per coefficient or breakpoint.
    """
    stacked = copy.copy(functions[0])
    for name in type(stacked)._stacked_fields:
        setattr(stacked, name, np.array([getattr(f, name) for f in functions]).T)
    return stacked


class _CellLoop:
    """Table cells without a stacked form, evaluated one scalar call each."""

    def __init__(self, functions: Sequence[LatencyFunction]):
        self.functions = list(functions)

    def _each(self, operation: str, x: np.ndarray) -> np.ndarray:
        rows = x.reshape(-1, len(self.functions))
        result = [
            [getattr(f, operation)(float(v)) for f, v in zip(self.functions, row)]
            for row in rows
        ]
        return np.array(result, dtype=float).reshape(x.shape)

    def value(self, x):
        return self._each("value", x)

    def derivative(self, x):
        return self._each("derivative", x)

    def integral(self, x):
        return self._each("integral", x)


class EdgeLatencyTable:
    """A grid of latency functions evaluated on arrays, one call per group.

    ``functions`` is either one network's edge latencies, shape ``(E,)``, or
    ``B`` such rows, shape ``(B, E)`` (member ``b``'s function on edge
    ``e``).  Cells are grouped by exact class and structure key (integer
    exponent, coefficient or breakpoint count); each group is one instance
    of its class whose coefficient fields are arrays over the group's cells,
    so the class's own ``value`` / ``derivative`` / ``integral`` evaluate the
    whole group with the floating-point operations of the scalar call.
    :class:`ModulatedLatency` and :class:`ScaledLatency` cells join their
    base function's group and keep per-cell ``(gain, stretch, offset)``
    arrays.  Every other cell -- custom subclasses, :class:`SumLatency`,
    nested wrappers -- is evaluated by a single per-cell scalar loop.

    :meth:`values`, :meth:`derivatives` and :meth:`integrals` take flows of
    shape ``(E,)`` or ``(R, E)``.  A one-row table applies its functions to
    every row.  A ``(B, E)`` table evaluates row ``i`` with member
    ``rows[i]``; ``rows`` (distinct indices) defaults to ``0..B-1``.
    """

    def __init__(self, functions):
        if len(functions) and not isinstance(functions[0], LatencyFunction):
            grid = [list(row) for row in functions]
        else:
            grid = [list(functions)]
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("every row of a latency table needs one function per edge")
        self.shape: Tuple[int, int] = (len(grid), width)
        cells = [function for row in grid for function in row]
        gain, stretch, offset = np.ones(len(cells)), np.ones(len(cells)), np.zeros(len(cells))
        wrapped = False
        groups: Dict[Hashable, List[int]] = {}
        bases: List[LatencyFunction] = []
        for index, function in enumerate(cells):
            base = function
            if type(function) in (ModulatedLatency, ScaledLatency) and _stackable(function.base):
                base = function.base
                wrapped = True
                if type(function) is ScaledLatency:
                    gain[index] = function.factor
                else:
                    gain[index] = function.gain
                    stretch[index] = function.stretch
                    offset[index] = function.offset
            bases.append(base)
            key = (type(base), base._structure()) if _stackable(base) else None
            groups.setdefault(key, []).append(index)
        self._groups = []
        for key, members in groups.items():
            evaluator = (
                _CellLoop([cells[i] for i in members])
                if key is None
                else _stack([bases[i] for i in members])
            )
            # None: the group is every cell in order, so no gather/scatter.
            index = None if len(members) == len(cells) else np.array(members)
            self._groups.append((index, evaluator))
        self._modulation = (gain, stretch, offset) if wrapped else None

    def values(self, x: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Return every cell's latency at flows ``x``."""
        return self._evaluate("value", x, rows)

    def derivatives(self, x: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Return every cell's latency derivative at flows ``x``."""
        return self._evaluate("derivative", x, rows)

    def integrals(self, x: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Return every cell's ``int_0^x l`` at flows ``x``."""
        return self._evaluate("integral", x, rows)

    def potential(self, x: np.ndarray) -> np.ndarray:
        """Return the Beckmann potential ``sum_e int_0^{x_e} l_e`` of ``(..., E)`` flows."""
        return ordered_sum(self.integrals(x))

    def _evaluate(self, operation: str, x, rows) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        members, width = self.shape
        if x.shape[-1:] != (width,):
            raise ValueError(f"flows of shape {x.shape} for a table of {width} edges")
        if members == 1:
            return self._cells(operation, x)
        if rows is None:
            if x.shape != self.shape:
                raise ValueError(f"flows of shape {x.shape} for a table of shape {self.shape}")
            return self._cells(operation, x.reshape(-1)).reshape(self.shape)
        # Rows outside the subset are evaluated at zero flow and dropped.
        grid = np.zeros(self.shape)
        grid[rows] = x
        return self._cells(operation, grid.reshape(-1)).reshape(self.shape)[rows]

    def _cells(self, operation: str, x: np.ndarray) -> np.ndarray:
        """Evaluate ``(..., N)`` flows, one per cell along the last axis."""
        modulation = self._modulation
        argument = x if modulation is None else modulation[1] * x
        out = np.empty(x.shape)
        for index, group in self._groups:
            if index is None:
                out[...] = getattr(group, operation)(argument)
            else:
                out[..., index] = getattr(group, operation)(argument[..., index])
        if modulation is None:
            return out
        # The ModulatedLatency arithmetic, in the same order.
        gain, stretch, offset = modulation
        if operation == "value":
            return gain * out + offset
        if operation == "derivative":
            return gain * stretch * out
        return gain / stretch * out + offset * x

    def __repr__(self) -> str:
        return f"EdgeLatencyTable(shape={self.shape}, groups={len(self._groups)})"
