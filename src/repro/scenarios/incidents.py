"""Link incidents: capacity drops and closures on time windows.

Traffic-assignment practice treats disruptions -- an accident blocking a
lane, a bridge closure, roadworks -- as first-class scenario inputs.  A
:class:`LinkIncident` describes one such event on one edge:

* a *capacity drop* to a fraction ``capacity_factor`` of the original
  capacity.  The affected latency becomes ``l(x / capacity_factor)``, which
  for BPR road latencies is exactly a capacity rescale (BPR depends on flow
  only through ``flow / capacity``) and for every other monotone latency is
  the natural "congestion arrives sooner" semantics;
* a *closure* (``capacity_factor = 0``): the latency gains a prohibitive
  additive constant ``closure_penalty``, so the dynamics drain the link and
  the shortest-path oracle routes around it.  On a fixed path set a closure
  is *soft* (paths over the link stay in the strategy set, at prohibitive
  latency); under column generation the closure additionally invalidates the
  crossing columns and re-seeds detour routes the moment the incident starts
  (see :func:`repro.largescale.columns.simulate_with_column_generation`).

An :class:`IncidentPlan` composes any number of incidents, possibly
overlapping on the same edge (factors multiply, penalties add).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..wardrop.latency import _finite

EdgeKey = Tuple  # (u, v, key) triples, matching repro.wardrop.paths.EdgeKey

# The default additive latency of a closed link.  It only needs to dominate
# the instance's realistic latencies; scenario authors working in raw-minute
# units (TNTP) or toy units alike can override it per incident.
DEFAULT_CLOSURE_PENALTY = 1e3


@dataclass(frozen=True)
class LinkIncident:
    """One disruption on one edge over the half-open window ``[start, end)``.

    ``capacity_factor`` in ``(0, 1]`` scales the link capacity down for the
    duration; ``0`` closes the link outright (``closure_penalty`` is then the
    additive latency that makes it prohibitive).
    """

    edge: EdgeKey
    start: float
    end: float
    capacity_factor: float = 0.0
    closure_penalty: float = DEFAULT_CLOSURE_PENALTY

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge", tuple(self.edge))
        # A NaN window is never active: the incident would silently not happen.
        _finite("start", self.start, minimum=-math.inf)
        _finite("end", self.end, minimum=-math.inf)
        if self.end <= self.start:
            raise ValueError("incident window must have positive length")
        if not 0.0 <= self.capacity_factor <= 1.0:
            raise ValueError("capacity_factor must lie in [0, 1] (0 closes the link)")
        if self.capacity_factor == 0.0:
            _finite("closure_penalty", self.closure_penalty, strict=True)

    @property
    def closes(self) -> bool:
        return self.capacity_factor == 0.0

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end


class IncidentPlan:
    """A composition of link incidents, queried by time."""

    def __init__(self, incidents: Sequence[LinkIncident]):
        self.incidents: List[LinkIncident] = list(incidents)

    def __len__(self) -> int:
        return len(self.incidents)

    def edges(self) -> List[EdgeKey]:
        """Return the distinct edges any incident may touch."""
        seen: List[EdgeKey] = []
        for incident in self.incidents:
            if incident.edge not in seen:
                seen.append(incident.edge)
        return seen

    def breakpoints(self, start: float, end: float) -> List[float]:
        """Return incident start/end instants inside ``[start, end)``."""
        points = set()
        for incident in self.incidents:
            for t in (incident.start, incident.end):
                if start < t < end:
                    points.add(float(t))
        return sorted(points)

    def modulation_at(self, t: float) -> Dict[EdgeKey, Tuple[float, float, float]]:
        """Return ``{edge: (gain, stretch, offset)}`` of the active incidents.

        Overlapping capacity drops multiply their stretch factors; overlapping
        closures add their penalties.  Edges with no active incident are
        absent from the result.
        """
        effects: Dict[EdgeKey, Tuple[float, float, float]] = {}
        for incident in self.incidents:
            if not incident.active_at(t):
                continue
            gain, stretch, offset = effects.get(incident.edge, (1.0, 1.0, 0.0))
            if incident.closes:
                offset += incident.closure_penalty
            else:
                stretch *= 1.0 / incident.capacity_factor
            effects[incident.edge] = (gain, stretch, offset)
        return effects

    def closed_edges(self, t: float) -> FrozenSet[EdgeKey]:
        """Return the edges with an active *closure* at time ``t``."""
        return frozenset(
            incident.edge
            for incident in self.incidents
            if incident.closes and incident.active_at(t)
        )

    def __repr__(self) -> str:
        return f"IncidentPlan({self.incidents!r})"
