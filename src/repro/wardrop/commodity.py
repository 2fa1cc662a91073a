"""Commodities of the Wardrop routing game.

An instance of the game is specified by a set of commodities
``[k] = {1, ..., k}`` where commodity ``i`` is a triple ``(s_i, t_i, r_i)``:
a source node, a sink node and a flow demand that has to be routed from the
source to the sink.  The paper normalises the total demand to
``sum_i r_i = 1`` so that flow shares can be read as population fractions of
an infinite agent population; :func:`normalise_demands` provides that
normalisation and the network constructor enforces it (optionally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence


@dataclass(frozen=True)
class Commodity:
    """One origin--destination pair with a flow demand.

    Attributes
    ----------
    source:
        The origin node ``s_i``.
    sink:
        The destination node ``t_i``.
    demand:
        The amount of flow ``r_i > 0`` to be routed from source to sink;
        NaN and infinite demands are rejected.
    name:
        Optional human-readable identifier used in reports.
    """

    source: Hashable
    sink: Hashable
    demand: float
    name: str = ""

    def __post_init__(self) -> None:
        # Imported here: the validation module imports this one.
        from .validation import require_positive

        require_positive("demand", self.demand)
        if self.source == self.sink:
            raise ValueError("commodity source and sink must differ")

    def label(self, index: int) -> str:
        """Return the display name, falling back to ``commodity-<index>``."""
        return self.name or f"commodity-{index}"


def total_demand(commodities: Sequence[Commodity]) -> float:
    """Return the sum of demands over all commodities."""
    return sum(commodity.demand for commodity in commodities)


def normalise_demands(commodities: Sequence[Commodity]) -> List[Commodity]:
    """Return a copy of ``commodities`` rescaled so the demands sum to one.

    The Wardrop model of the paper works with a population of measure one.
    Instances defined with natural (unnormalised) demands can be rescaled
    with this helper before being handed to the simulator.
    """
    total = total_demand(commodities)
    if total <= 0:
        raise ValueError("total demand must be positive")
    return [
        Commodity(c.source, c.sink, c.demand / total, c.name) for c in commodities
    ]


def demands_are_normalised(commodities: Sequence[Commodity], tolerance: float = 1e-9) -> bool:
    """Return ``True`` if the demands sum to one within ``tolerance``."""
    return abs(total_demand(commodities) - 1.0) <= tolerance
