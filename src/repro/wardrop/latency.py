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
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

import numpy as np

# A stacked evaluator maps ``(x, rows)`` -- the flows ``x[i]`` and the family
# member indices ``rows[i]`` -- to the latencies ``functions[rows[i]](x[i])``.
StackedEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _finite(name: str, value: float, minimum: float = 0.0, strict: bool = False) -> float:
    """Return ``value`` as a float, or raise naming ``name`` if it is out of range.

    ``value >= minimum`` (``> minimum`` when ``strict``) and finiteness are
    checked together: a bare ``value < 0`` guard is False for NaN and would
    let it through.
    """
    value = float(value)
    in_range = value > minimum if strict else value >= minimum
    if not (math.isfinite(value) and in_range):
        bound = ">" if strict else ">="
        raise ValueError(f"{name} must be finite and {bound} {minimum}, got {value}")
    return value


def _int_pow(x, exponent: int):
    """Return ``x ** exponent`` by binary exponentiation (scalars or arrays).

    Numpy's vectorised pow kernel and the scalar ``float ** int`` (libm) pow
    disagree by an ulp on a few percent of inputs, which would break the
    bit-for-bit contract between the scalar and the batched engines wherever
    a latency uses an integer power (BPR, monomials).  Binary exponentiation
    performs the *same* multiplication sequence elementwise whether ``x`` is
    a float or an array, so every evaluation tier produces identical bits --
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


def _int_power(x: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Return ``x ** exponents`` with per-element integer exponents.

    Groups by exponent and applies :func:`_int_pow` per group, so per-row
    stacked evaluation performs exactly the scalar multiplication sequence.
    """
    result = np.empty_like(x)
    for exponent in np.unique(exponents):
        selected = exponents == exponent
        result[selected] = _int_pow(x[selected], int(exponent))
    return result


class LatencyFunction(ABC):
    """A continuous, non-decreasing latency function on ``[0, 1]``.

    Subclasses implement the latency value, its derivative and its
    antiderivative in closed form.  All functions must be non-decreasing and
    non-negative on the unit interval; :meth:`validate` spot-checks this and
    is used by the instance validators.
    """

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

    def value_array(self, x: np.ndarray) -> np.ndarray:
        """Return ``value`` evaluated elementwise on an array of flows.

        The batched simulation engine evaluates every edge latency on a whole
        ensemble of flows at once; subclasses override this with a vectorised
        implementation that performs the *same floating-point operations* as
        :meth:`value` so that batched and scalar runs agree bit for bit.  The
        default falls back to a Python loop, which is slow but always correct
        (custom latency functions keep working without a batch override).
        """
        x = np.asarray(x, dtype=float)
        return np.array([self.value(float(v)) for v in x.ravel()]).reshape(x.shape)

    @classmethod
    def stacked_evaluator(cls, functions: Sequence["LatencyFunction"]) -> Optional[StackedEvaluator]:
        """Return a coefficient-stacked evaluator for same-type functions.

        ``functions`` holds one instance of ``cls`` per family member.  The
        returned callable ``evaluate(x, rows)`` computes
        ``functions[rows[i]].value(x[i])`` for a whole batch at once by
        stacking the functions' coefficients into arrays, performing the same
        floating-point operations as the scalar :meth:`value` so that
        family-batched and per-row scalar runs agree bit for bit.  Classes
        without a stacked form return ``None`` and callers fall back to a
        per-row loop (see :class:`LatencyStack`).
        """
        return None

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

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x), self.constant, dtype=float)

    @classmethod
    def stacked_evaluator(cls, functions):
        constants = np.array([f.constant for f in functions])

        def evaluate(x, rows):
            return constants[rows].copy()

        return evaluate

    def __repr__(self) -> str:
        return f"ConstantLatency({self.constant})"


class LinearLatency(LatencyFunction):
    """A homogeneous linear latency ``l(x) = a * x``."""

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

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return self.coefficient * np.asarray(x, dtype=float)

    @classmethod
    def stacked_evaluator(cls, functions):
        coefficients = np.array([f.coefficient for f in functions])

        def evaluate(x, rows):
            return coefficients[rows] * np.asarray(x, dtype=float)

        return evaluate

    def __repr__(self) -> str:
        return f"LinearLatency({self.coefficient})"


class AffineLatency(LatencyFunction):
    """An affine latency ``l(x) = a * x + b`` with ``a, b >= 0``."""

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

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    @classmethod
    def stacked_evaluator(cls, functions):
        slopes = np.array([f.slope for f in functions])
        intercepts = np.array([f.intercept for f in functions])

        def evaluate(x, rows):
            return slopes[rows] * np.asarray(x, dtype=float) + intercepts[rows]

        return evaluate

    def __repr__(self) -> str:
        return f"AffineLatency(slope={self.slope}, intercept={self.intercept})"


class PolynomialLatency(LatencyFunction):
    """A polynomial latency ``l(x) = sum_d c_d * x**d`` with ``c_d >= 0``.

    Non-negative coefficients guarantee monotonicity on ``[0, 1]``; this is
    the standard class of latency functions used throughout the price of
    anarchy literature (Roughgarden & Tardos).
    """

    def __init__(self, coefficients: Sequence[float]):
        if not coefficients:
            raise ValueError("polynomial latency requires at least one coefficient")
        self.coefficients = [
            _finite(f"coefficients[{i}]", c) for i, c in enumerate(coefficients)
        ]

    def value(self, x: float) -> float:
        total = 0.0
        power = 1.0
        for coefficient in self.coefficients:
            total += coefficient * power
            power *= x
        return total

    def derivative(self, x: float) -> float:
        total = 0.0
        power = 1.0
        for degree, coefficient in enumerate(self.coefficients):
            if degree >= 1:
                total += degree * coefficient * power
                power *= x
            # degree 0 contributes nothing; power stays at 1 until degree 1.
        return total

    def integral(self, x: float) -> float:
        total = 0.0
        power = x
        for degree, coefficient in enumerate(self.coefficients):
            total += coefficient * power / (degree + 1)
            power *= x
        return total

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # Non-negative coefficients make the derivative non-decreasing.
        return self.derivative(hi)

    def value_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # Same accumulation order as the scalar `value` for bit equality.
        total = np.zeros_like(x)
        power = np.ones_like(x)
        for coefficient in self.coefficients:
            total += coefficient * power
            power *= x
        return total

    @classmethod
    def stacked_evaluator(cls, functions):
        if len({len(f.coefficients) for f in functions}) != 1:
            return None
        coefficients = np.array([f.coefficients for f in functions])

        def evaluate(x, rows):
            x = np.asarray(x, dtype=float)
            # Same accumulation order as `value` / `value_array`.
            total = np.zeros_like(x)
            power = np.ones_like(x)
            for degree in range(coefficients.shape[1]):
                total += coefficients[rows, degree] * power
                power *= x
            return total

        return evaluate

    def __repr__(self) -> str:
        return f"PolynomialLatency({self.coefficients})"


class MonomialLatency(LatencyFunction):
    """A monomial latency ``l(x) = a * x**d`` (the Pigou-style nonlinearity)."""

    def __init__(self, coefficient: float = 1.0, degree: int = 1):
        self.coefficient = _finite("coefficient", coefficient)
        self.degree = int(_finite("degree", degree, minimum=1.0))

    def value(self, x: float) -> float:
        return self.coefficient * _int_pow(x, self.degree)

    def derivative(self, x: float) -> float:
        return self.coefficient * self.degree * x ** (self.degree - 1)

    def integral(self, x: float) -> float:
        return self.coefficient * x ** (self.degree + 1) / (self.degree + 1)

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.derivative(hi)

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return self.coefficient * _int_pow(np.asarray(x, dtype=float), self.degree)

    @classmethod
    def stacked_evaluator(cls, functions):
        coefficients = np.array([f.coefficient for f in functions])
        degrees = np.array([f.degree for f in functions])
        if (degrees == degrees[0]).all():
            degree = int(degrees[0])

            def evaluate(x, rows):
                return coefficients[rows] * _int_pow(np.asarray(x, dtype=float), degree)

        else:

            def evaluate(x, rows):
                return coefficients[rows] * _int_power(np.asarray(x, dtype=float), degrees[rows])

        return evaluate

    def __repr__(self) -> str:
        return f"MonomialLatency({self.coefficient}, degree={self.degree})"


class BPRLatency(LatencyFunction):
    """Bureau of Public Roads latency ``l(x) = t0 * (1 + a * (x / c)**d)``.

    The standard road-traffic latency model; included because Wardrop's model
    originates in road traffic and BPR functions are the canonical workload
    for traffic-assignment solvers.
    """

    def __init__(self, free_flow_time: float, capacity: float, alpha: float = 0.15, beta: int = 4):
        self.free_flow_time = _finite("free_flow_time", free_flow_time)
        self.capacity = _finite("capacity", capacity, strict=True)
        self.alpha = _finite("alpha", alpha)
        self.beta = int(_finite("beta", beta, minimum=1.0))

    def value(self, x: float) -> float:
        return self.free_flow_time * (1.0 + self.alpha * _int_pow(x / self.capacity, self.beta))

    def derivative(self, x: float) -> float:
        return (
            self.free_flow_time
            * self.alpha
            * self.beta
            * x ** (self.beta - 1)
            / self.capacity**self.beta
        )

    def integral(self, x: float) -> float:
        return self.free_flow_time * (
            x + self.alpha * x ** (self.beta + 1) / ((self.beta + 1) * self.capacity**self.beta)
        )

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.derivative(hi)

    def value_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.free_flow_time * (1.0 + self.alpha * _int_pow(x / self.capacity, self.beta))

    @classmethod
    def stacked_evaluator(cls, functions):
        free_flow_times = np.array([f.free_flow_time for f in functions])
        capacities = np.array([f.capacity for f in functions])
        alphas = np.array([f.alpha for f in functions])
        betas = np.array([f.beta for f in functions])
        if (betas == betas[0]).all():
            exponent = int(betas[0])

            def evaluate(x, rows):
                x = np.asarray(x, dtype=float)
                return free_flow_times[rows] * (
                    1.0 + alphas[rows] * _int_pow(x / capacities[rows], exponent)
                )

        else:

            def evaluate(x, rows):
                x = np.asarray(x, dtype=float)
                powered = _int_power(x / capacities[rows], betas[rows])
                return free_flow_times[rows] * (1.0 + alphas[rows] * powered)

        return evaluate

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

    def value(self, x: float) -> float:
        if x <= self.cap:
            return 1.0 / (self.capacity - x)
        return self._cap_value + self._cap_slope * (x - self.cap)

    def derivative(self, x: float) -> float:
        if x <= self.cap:
            return 1.0 / (self.capacity - x) ** 2
        return self._cap_slope

    def integral(self, x: float) -> float:
        if x <= self.cap:
            return math.log(self.capacity / (self.capacity - x))
        head = math.log(self.capacity / (self.capacity - self.cap))
        tail = x - self.cap
        return head + self._cap_value * tail + 0.5 * self._cap_slope * tail * tail

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return self.derivative(min(hi, self.cap)) if hi <= self.cap else self._cap_slope

    def value_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # The queueing branch is only selected where x <= cap < capacity, so
        # the masked-out division can never hit the pole.
        with np.errstate(divide="ignore", invalid="ignore"):
            queueing = 1.0 / (self.capacity - x)
        linear = self._cap_value + self._cap_slope * (x - self.cap)
        return np.where(x <= self.cap, queueing, linear)

    @classmethod
    def stacked_evaluator(cls, functions):
        capacities = np.array([f.capacity for f in functions])
        caps = np.array([f.cap for f in functions])
        cap_values = np.array([f._cap_value for f in functions])
        cap_slopes = np.array([f._cap_slope for f in functions])

        def evaluate(x, rows):
            x = np.asarray(x, dtype=float)
            cap = caps[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                queueing = 1.0 / (capacities[rows] - x)
            linear = cap_values[rows] + cap_slopes[rows] * (x - cap)
            return np.where(x <= cap, queueing, linear)

        return evaluate

    def __repr__(self) -> str:
        return f"MM1Latency(capacity={self.capacity}, cap={self.cap})"


class PiecewiseLinearLatency(LatencyFunction):
    """A continuous piecewise-linear latency defined by breakpoints.

    ``breakpoints`` is a list of ``(x, y)`` pairs with strictly increasing
    ``x`` covering ``[0, 1]`` and non-decreasing ``y``.  This class expresses
    the paper's oscillation example ``l(x) = max{0, beta * (x - 1/2)}``
    exactly (see :class:`ThresholdLatency`).
    """

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

    def _segment(self, x: float) -> int:
        """Return the index ``i`` such that ``xs[i] <= x <= xs[i+1]``."""
        if x <= self.xs[0]:
            return 0
        if x >= self.xs[-1]:
            return len(self.xs) - 2
        lo, hi = 0, len(self.xs) - 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.xs[mid] <= x:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _slope(self, i: int) -> float:
        return (self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i])

    def value(self, x: float) -> float:
        i = self._segment(x)
        return self.ys[i] + self._slope(i) * (x - self.xs[i])

    def derivative(self, x: float) -> float:
        return self._slope(self._segment(x))

    def integral(self, x: float) -> float:
        total = 0.0
        for i in range(len(self.xs) - 1):
            left = self.xs[i]
            right = min(x, self.xs[i + 1])
            if right <= left:
                break
            y_left = self.ys[i]
            y_right = y_left + self._slope(i) * (right - left)
            total += 0.5 * (y_left + y_right) * (right - left)
        return total

    def max_slope(self, lo: float = 0.0, hi: float = 1.0) -> float:
        best = 0.0
        for i in range(len(self.xs) - 1):
            if self.xs[i + 1] <= lo or self.xs[i] >= hi:
                continue
            best = max(best, self._slope(i))
        return best

    def value_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        # Mirror `_segment`: the largest i with xs[i] <= x, clipped to a valid
        # segment so values outside [x0, x_last] extrapolate linearly exactly
        # like the scalar path.
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        slopes = (ys[idx + 1] - ys[idx]) / (xs[idx + 1] - xs[idx])
        return ys[idx] + slopes * (x - xs[idx])

    @classmethod
    def stacked_evaluator(cls, functions):
        xs = np.asarray(functions[0].xs)
        if all(
            len(f.xs) == len(xs) and np.array_equal(np.asarray(f.xs), xs)
            for f in functions[1:]
        ):
            # Shared breakpoint x-coordinates (e.g. a beta sweep of the
            # oscillation latency): one searchsorted locates every row's
            # segment at once.
            ys = np.array([f.ys for f in functions])

            def evaluate(x, rows):
                x = np.asarray(x, dtype=float)
                idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
                y_lo = ys[rows, idx]
                slopes = (ys[rows, idx + 1] - y_lo) / (xs[idx + 1] - xs[idx])
                return y_lo + slopes * (x - xs[idx])

            return evaluate
        # Per-row breakpoint x-coordinates (e.g. a threshold sweep): pad every
        # row to the widest breakpoint count.  Padded x-slots hold +inf so the
        # row-wise count of "xs <= x" never includes them, and the segment
        # index is clipped to each row's own last real segment -- the selected
        # segment, and hence the interpolation arithmetic, matches the scalar
        # `_segment`/`value` pair exactly.
        lengths = np.array([len(f.xs) for f in functions])
        width = int(lengths.max())
        padded_xs = np.full((len(functions), width), np.inf)
        padded_ys = np.zeros((len(functions), width))
        for i, f in enumerate(functions):
            padded_xs[i, : len(f.xs)] = f.xs
            padded_ys[i, : len(f.ys)] = f.ys
        last_segment = lengths - 2

        def evaluate(x, rows):
            x = np.asarray(x, dtype=float)
            row_xs = padded_xs[rows]
            row_ys = padded_ys[rows]
            counts = (row_xs <= x[:, None]).sum(axis=1)
            idx = np.clip(counts - 1, 0, last_segment[rows])
            at = np.arange(len(idx))
            x_lo = row_xs[at, idx]
            y_lo = row_ys[at, idx]
            slopes = (row_ys[at, idx + 1] - y_lo) / (row_xs[at, idx + 1] - x_lo)
            return y_lo + slopes * (x - x_lo)

        return evaluate

    def __repr__(self) -> str:
        points = list(zip(self.xs, self.ys))
        return f"PiecewiseLinearLatency({points})"


class ThresholdLatency(PiecewiseLinearLatency):
    """The paper's oscillation latency ``l(x) = max{0, beta * (x - threshold)}``.

    Section 3.2 of the paper uses two parallel links with this latency (with
    ``threshold = 1/2``): it is zero below the threshold and rises with slope
    ``beta`` above it, so the Wardrop equilibrium has latency exactly zero.
    """

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

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return self.factor * self.base.value_array(x)

    @classmethod
    def stacked_evaluator(cls, functions):
        factors = np.array([f.factor for f in functions])
        base_stack = LatencyStack([f.base for f in functions])

        def evaluate(x, rows):
            return factors[rows] * base_stack.values(x, rows)

        return evaluate

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
    for the non-negative latency values this library produces, so wrapping
    unaffected batch rows (to keep a :class:`LatencyStack` homogeneous) never
    perturbs their trajectories.
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

    def validate(self, samples: int = 32) -> None:
        # A stretch > 1 evaluates the base beyond [0, 1]; the base classes in
        # this library are monotone on all of [0, inf), so spot-check the
        # stretched range directly instead of the unit interval.
        previous = None
        for i in range(samples + 1):
            x = i / samples
            y = self.value(x)
            if y < -1e-12:
                raise ValueError(f"{self!r} is negative at {x}: {y}")
            if previous is not None and y < previous - 1e-9:
                raise ValueError(f"{self!r} is decreasing near {x}")
            previous = y

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return self.gain * self.base.value_array(self.stretch * np.asarray(x, dtype=float)) + self.offset

    @classmethod
    def stacked_evaluator(cls, functions):
        gains = np.array([f.gain for f in functions])
        stretches = np.array([f.stretch for f in functions])
        offsets = np.array([f.offset for f in functions])
        base_stack = LatencyStack([f.base for f in functions])

        def evaluate(x, rows):
            x = np.asarray(x, dtype=float)
            return gains[rows] * base_stack.values(stretches[rows] * x, rows) + offsets[rows]

        return evaluate

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

    def value_array(self, x: np.ndarray) -> np.ndarray:
        # Same left-to-right accumulation as the scalar sum().
        total = self.parts[0].value_array(x)
        for part in self.parts[1:]:
            total = total + part.value_array(x)
        return total

    @classmethod
    def stacked_evaluator(cls, functions):
        if len({len(f.parts) for f in functions}) != 1:
            return None
        part_stacks = [
            LatencyStack([f.parts[k] for f in functions])
            for k in range(len(functions[0].parts))
        ]

        def evaluate(x, rows):
            total = part_stacks[0].values(x, rows)
            for stack in part_stacks[1:]:
                total = total + stack.values(x, rows)
            return total

        return evaluate

    def __repr__(self) -> str:
        return f"SumLatency({self.parts!r})"


class LatencyStack:
    """One edge's latency functions across a family, evaluated in one shot.

    ``functions[b]`` is the edge's latency function in family member ``b``.
    :meth:`values` evaluates member ``rows[i]``'s function at flow ``x[i]``
    for a whole batch at once, choosing the fastest correct tier:

    1. a single shared function object uses its vectorised
       :meth:`~LatencyFunction.value_array`,
    2. same-type functions use the class's coefficient-stacked evaluator
       (:meth:`~LatencyFunction.stacked_evaluator`), which performs the same
       floating-point operations as the scalar path,
    3. anything else falls back to a per-row scalar loop, which is slow but
       always correct (mixed function types per edge keep working).

    This is the kernel behind :class:`~repro.wardrop.family.NetworkFamily`:
    a family sweep stacks every edge's coefficients once at construction and
    then evaluates heterogeneous latencies with plain array arithmetic.
    """

    def __init__(self, functions: Sequence[LatencyFunction]):
        self.functions = list(functions)
        if not self.functions:
            raise ValueError("a latency stack needs at least one function")
        first = self.functions[0]
        self.shared = all(f is first for f in self.functions)
        self._evaluator: Optional[StackedEvaluator] = None
        if not self.shared and all(type(f) is type(first) for f in self.functions):
            self._evaluator = type(first).stacked_evaluator(self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def vectorised(self) -> bool:
        """True if evaluation avoids the per-row Python loop."""
        return self.shared or self._evaluator is not None

    def values(self, x: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Return ``functions[rows[i]].value(x[i])`` for every ``i``.

        ``rows`` defaults to ``0..B-1`` (one evaluation per member, in order);
        the batched engine passes the indices of the currently active rows so
        frozen rows skip latency work entirely.
        """
        x = np.asarray(x, dtype=float)
        if rows is None:
            rows = np.arange(len(self.functions))
        if self.shared:
            return self.functions[0].value_array(x)
        if self._evaluator is not None:
            return self._evaluator(x, rows)
        return np.array([self.functions[r].value(v) for r, v in zip(rows, x)])

    def __repr__(self) -> str:
        kinds = {type(f).__name__ for f in self.functions}
        return f"LatencyStack({len(self.functions)} functions, kinds={sorted(kinds)})"
