"""Validation helpers for Wardrop instances.

The theory of the paper only applies under explicit assumptions on the
instance: latency functions must be continuous, non-decreasing and have a
bounded first derivative, the demands must be normalised and every commodity
must actually be routable.  :func:`validate_network` packages these checks
into a single call that examples and the simulator run up front so that
violations surface as clear errors instead of silently wrong dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .commodity import demands_are_normalised
from .network import WardropNetwork


class InstanceValidationError(ValueError):
    """Raised when a Wardrop instance violates the model assumptions."""


@dataclass
class ValidationReport:
    """The outcome of validating an instance.

    ``issues`` lists human-readable descriptions of every violated
    assumption; an empty list means the instance is valid.
    """

    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_invalid(self) -> None:
        if self.issues:
            raise InstanceValidationError("; ".join(self.issues))


def require_positive(name: str, values) -> None:
    """Raise ``ValueError`` naming ``name`` unless every value is finite and > 0.

    ``value <= 0`` is False for NaN, so a bare sign check lets NaN past the
    boundary to fail later, deep inside an engine.  Array-valued settings
    name the first offending row.
    """
    array = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(array) & (array > 0)))
    if len(bad):
        index = int(bad[0])
        label = name if array.ndim == 0 else f"{name}[{index}]"
        raise ValueError(f"{label} must be finite and positive, got {array.flat[index]}")


def require_nonnegative(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and >= 0.

    A NaN tolerance compares False with every gap, so a solver would run
    to its iteration cap without saying why.
    """
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def require_positive_integer(name: str, values) -> None:
    """Raise ``ValueError`` naming ``name`` unless every value is an integer >= 1.

    Step counts and strides are used as integers, so a fractional value is
    rejected rather than truncated (``0.5`` would otherwise become zero).
    """
    require_positive(name, values)
    array = np.asarray(values, dtype=float)
    bad = np.flatnonzero(array != np.floor(array))
    if len(bad):
        index = int(bad[0])
        label = name if array.ndim == 0 else f"{name}[{index}]"
        raise ValueError(f"{label} must be an integer, got {array.flat[index]}")


def require_nonnegative_integer(name: str, values) -> None:
    """Raise ``ValueError`` naming ``name`` unless every value is a whole number >= 0.

    Seeds are cast to integers, so ``1.5`` would otherwise run as seed 1
    and NaN fail later with numpy's message instead of the field's name.
    """
    array = np.asarray(values)
    as_float = array.astype(float)
    bad = np.flatnonzero(
        ~(np.isfinite(as_float) & (as_float >= 0) & (as_float == np.floor(as_float)))
    )
    if len(bad):
        index = int(bad[0])
        label = name if array.ndim == 0 else f"{name}[{index}]"
        raise ValueError(f"{label} must be a non-negative integer, got {array.flat[index]}")


def validate_network(network: WardropNetwork, samples: int = 32) -> ValidationReport:
    """Check the model assumptions of Section 2.1 on a network.

    The checks are:

    * demands sum to one (the paper's normalisation),
    * every commodity has at least one path (guaranteed at construction but
      re-checked for defence in depth),
    * every latency function is non-negative and non-decreasing on ``[0, 1]``
      (spot-checked on a grid),
    * every latency function has a finite slope bound, so the network
      constant ``beta`` is finite and the safe update period is positive.
    """
    report = ValidationReport()
    if not demands_are_normalised(network.commodities):
        report.issues.append("commodity demands do not sum to one")
    for index in range(network.num_commodities):
        if not network.paths.commodity_paths(index):
            report.issues.append(f"commodity {index} has no paths")
    for edge in network.edges:
        latency = network.latency_function(edge)
        try:
            latency.validate(samples=samples)
        except ValueError as error:
            report.issues.append(f"edge {edge}: {error}")
        slope = latency.max_slope(0.0, 1.0)
        if not slope < float("inf"):
            report.issues.append(f"edge {edge}: latency slope is unbounded")
    if network.max_latency() <= 0 and network.max_slope() <= 0:
        report.issues.append("all latencies are identically zero; the game is degenerate")
    return report


def assert_valid(network: WardropNetwork) -> None:
    """Validate a network and raise :class:`InstanceValidationError` on failure."""
    validate_network(network).raise_if_invalid()
