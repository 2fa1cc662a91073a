"""The :class:`Scenario`: one nonstationary environment, engine-agnostic.

A scenario bundles the three nonstationary effects of this package --
time-varying total demand, time-varying latency coefficients and link
incidents -- and compiles them, at any sample time, into per-edge
``(gain, stretch, offset)`` triples: the affected edge latencies become

    l_e^t(x) = gain_e(t) * l_e(stretch_e(t) * x) + offset_e(t)

(see :class:`~repro.wardrop.latency.ModulatedLatency`).  Every engine applies
the modulation *at phase boundaries*: the environment a phase runs in is
frozen at the phase's start, which matches the paper's information model (the
world, like the bulletin board, is sampled at discrete instants) and keeps
a row's bits independent of the batch it runs in.

Code that needs one row's environment as a network -- column generation's
eviction and oracle costs -- uses :meth:`Scenario.network_at`, which
materialises the effective network at a sample time as a lightweight
:meth:`~repro.wardrop.network.WardropNetwork.with_latencies` copy with
``ModulatedLatency`` wrappers -- cached per distinct modulation, so
piecewise-constant scenarios build a handful of networks no matter how many
phases run.  :class:`ScenarioEnsemble` is the batched counterpart and builds
no networks: :meth:`ScenarioEnsemble.family_at` fills ``(B, E)`` gain,
stretch and offset arrays from every row's :meth:`Scenario.modulation_at` and
applies them around the base family's
:class:`~repro.wardrop.latency.EdgeLatencyTable` with the ``ModulatedLatency``
arithmetic (``gain = stretch = 1``, ``offset = 0`` on unaffected cells, which
is float-transparent).  The two constructions are independent, and the
scenario suites compare them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..wardrop.family import NetworkFamily
from ..wardrop.latency import ModulatedLatency
from ..wardrop.network import WardropNetwork
from .incidents import EdgeKey, IncidentPlan, LinkIncident
from .schedule import CoefficientSchedule, DemandSchedule, Schedule

Triple = Tuple[float, float, float]

IDENTITY_TRIPLE: Triple = (1.0, 1.0, 0.0)

# Memoisation bound of `Scenario.network_at`, per base network.
# Piecewise-constant scenarios revisit a handful of modulations and never
# approach it; continuous profiles (ramps, periodic peaks) produce a fresh
# modulation every phase, so without a bound the cache would grow linearly
# with the phase count of a run.
NETWORK_CACHE_LIMIT = 128


def _bounded_insert(cache: Dict, key, value, limit: int) -> None:
    """Insert into a dict cache, evicting oldest entries beyond ``limit``."""
    cache[key] = value
    while len(cache) > limit:
        cache.pop(next(iter(cache)))


@dataclass(frozen=True)
class Modulation:
    """One sampled scenario state: global and per-edge modulation factors.

    ``demand`` stretches every latency argument (the total-demand multiplier);
    ``gain`` scales every latency value (an all-edge coefficient multiplier);
    ``edges`` holds the additional per-edge ``(gain, stretch, offset)``
    triples of edge-scoped effects, sorted for hashability.  Equal modulations
    compare (and hash) equal, which is what the per-scenario network caches
    key on.
    """

    demand: float = 1.0
    gain: float = 1.0
    edges: Tuple[Tuple[EdgeKey, Triple], ...] = ()

    @property
    def is_identity(self) -> bool:
        return self.demand == 1.0 and self.gain == 1.0 and not self.edges

    def triple_for(self, edge: EdgeKey) -> Triple:
        """Return the total ``(gain, stretch, offset)`` applied to one edge."""
        gain, stretch, offset = dict(self.edges).get(edge, IDENTITY_TRIPLE)
        return (self.gain * gain, self.demand * stretch, offset)


class Scenario:
    """A nonstationary environment: demand profile + coefficients + incidents.

    Parameters
    ----------
    name:
        Display name (echoed by the CLI and benchmark tables).
    demand:
        Optional total-demand profile -- a :class:`DemandSchedule` or a bare
        :class:`~repro.scenarios.schedule.Schedule` (wrapped automatically).
    coefficients:
        Optional latency-coefficient profiles -- one
        :class:`CoefficientSchedule` or a sequence of them (their effects
        compose multiplicatively on shared edges).
    incidents:
        Optional :class:`IncidentPlan` or a sequence of
        :class:`LinkIncident`.
    """

    def __init__(
        self,
        name: str = "",
        demand: Optional[Union[DemandSchedule, Schedule]] = None,
        coefficients: Optional[Union[CoefficientSchedule, Sequence[CoefficientSchedule]]] = None,
        incidents: Optional[Union[IncidentPlan, Sequence[LinkIncident]]] = None,
    ):
        self.name = name
        if isinstance(demand, Schedule):
            demand = DemandSchedule(demand)
        self.demand = demand
        if isinstance(coefficients, CoefficientSchedule):
            coefficients = [coefficients]
        self.coefficients: List[CoefficientSchedule] = list(coefficients or [])
        if incidents is not None and not isinstance(incidents, IncidentPlan):
            incidents = IncidentPlan(list(incidents))
        self.incidents: Optional[IncidentPlan] = incidents
        # Effective-network cache: base -> {modulation: network}.  Weak keys,
        # so the entries of a base network go when it does.
        self._cache: "weakref.WeakKeyDictionary[WardropNetwork, Dict]" = (
            weakref.WeakKeyDictionary()
        )

    # Sampling ----------------------------------------------------------------

    def modulation_at(self, t: float) -> Modulation:
        """Return the scenario state frozen at sample time ``t``."""
        demand = self.demand.multiplier_at(t) if self.demand is not None else 1.0
        gain = 1.0
        per_edge: Dict[EdgeKey, Triple] = {}
        for coefficient in self.coefficients:
            value = coefficient.gain_at(t)
            if coefficient.edges is None:
                gain *= value
                continue
            if value == 1.0:
                continue
            for edge in coefficient.edges:
                g, s, o = per_edge.get(edge, IDENTITY_TRIPLE)
                per_edge[edge] = (g * value, s, o)
        if self.incidents is not None:
            for edge, (g, s, o) in self.incidents.modulation_at(t).items():
                base_g, base_s, base_o = per_edge.get(edge, IDENTITY_TRIPLE)
                per_edge[edge] = (base_g * g, base_s * s, base_o + o)
        edges = tuple(sorted(per_edge.items(), key=lambda item: str(item[0])))
        return Modulation(demand=demand, gain=gain, edges=edges)

    def breakpoints(self, start: float, end: float) -> List[float]:
        """Return every instant in ``[start, end)`` where the state can jump."""
        points = set()
        if self.demand is not None:
            points.update(self.demand.breakpoints(start, end))
        for coefficient in self.coefficients:
            points.update(coefficient.breakpoints(start, end))
        if self.incidents is not None:
            points.update(self.incidents.breakpoints(start, end))
        return sorted(points)

    def closed_edges(self, t: float) -> FrozenSet[EdgeKey]:
        """Return the edges fully closed by an incident at time ``t``."""
        if self.incidents is None:
            return frozenset()
        return self.incidents.closed_edges(t)

    def require_edges(self, base: WardropNetwork) -> None:
        """Raise if an edge-scoped effect names an edge absent from ``base``.

        Effects on unknown edges would otherwise be silently dropped -- a
        typo'd incident edge (or a scenario built for a different instance)
        would run as a stationary no-op while the tracking metrics report on
        an incident that never happened.  Every engine validates once at run
        start.
        """
        missing = []
        for coefficient in self.coefficients:
            for edge in coefficient.edges or []:
                if not base.graph.has_edge(*edge):
                    missing.append(edge)
        if self.incidents is not None:
            for edge in self.incidents.edges():
                if not base.graph.has_edge(*edge):
                    missing.append(edge)
        if missing:
            label = f" {self.name!r}" if self.name else ""
            raise ValueError(
                f"scenario{label} names edges that are not in the network "
                f"graph: {missing}"
            )

    # Effective networks ------------------------------------------------------

    def network_at(self, base: WardropNetwork, t: float) -> WardropNetwork:
        """Return the effective network at sample time ``t`` (cached).

        The result is a lightweight ``with_latencies`` copy of ``base`` whose
        affected edges carry :class:`ModulatedLatency` wrappers.
        """
        modulation = self.modulation_at(t)
        if modulation.is_identity:
            return base
        cache = self._cache.setdefault(base, {})
        cached = cache.get(modulation)
        if cached is not None:
            return cached
        if modulation.demand != 1.0 or modulation.gain != 1.0:
            targets = list(base.graph.edges(keys=True))
        else:
            targets = [edge for edge, _ in modulation.edges if base.graph.has_edge(*edge)]
        overrides = {}
        for edge in targets:
            gain, stretch, offset = modulation.triple_for(edge)
            overrides[edge] = ModulatedLatency(base.latency_function(edge), gain, stretch, offset)
        network = base.with_latencies(overrides) if overrides else base
        _bounded_insert(cache, modulation, network, NETWORK_CACHE_LIMIT)
        return network

    def __repr__(self) -> str:
        parts = []
        if self.demand is not None:
            parts.append(f"demand={self.demand!r}")
        if self.coefficients:
            parts.append(f"coefficients={self.coefficients!r}")
        if self.incidents is not None:
            parts.append(f"incidents={self.incidents!r}")
        label = f"{self.name!r}, " if self.name else ""
        return f"Scenario({label}{', '.join(parts)})"


class ScenarioEnsemble:
    """Per-row scenarios of a batched run, applied to one shared latency table.

    ``family`` is the :class:`NetworkFamily` the batch routes on (a shared
    network is :meth:`NetworkFamily.replicate` of it); ``scenarios`` holds
    one :class:`Scenario` (or ``None`` for a stationary row) per batch row.
    :meth:`family_at` returns the effective family at per-row sample times:
    the base family's latency table, built once, under ``(B, E)``
    modulation arrays.
    """

    def __init__(self, family: NetworkFamily, scenarios: Sequence[Optional[Scenario]]):
        self.scenarios: List[Optional[Scenario]] = list(scenarios)
        if family.size != len(self.scenarios):
            raise ValueError(
                f"family of {family.size} networks for {len(self.scenarios)} scenarios"
            )
        self.family = family
        for row, scenario in enumerate(self.scenarios):
            if scenario is not None:
                scenario.require_edges(self.family.member(row))
        self._columns: Dict[EdgeKey, int] = {
            edge: column for column, edge in enumerate(self.family.base.edges)
        }

    def family_at(self, times: np.ndarray) -> NetworkFamily:
        """Return the effective family at per-row sample times ``(B,)``."""
        times = np.array(times, dtype=float)
        shape = (self.family.size, self.family.num_edges)
        gain, stretch, offset = np.ones(shape), np.ones(shape), np.zeros(shape)
        for row, scenario in enumerate(self.scenarios):
            if scenario is None:
                continue
            modulation = scenario.modulation_at(float(times[row]))
            gain[row] = modulation.gain
            stretch[row] = modulation.demand
            for edge, _ in modulation.edges:
                column = self._columns.get(edge)
                if column is not None:
                    gain[row, column], stretch[row, column], offset[row, column] = (
                        modulation.triple_for(edge)
                    )

        def members() -> List[WardropNetwork]:
            return [
                self.family.member(row)
                if scenario is None
                else scenario.network_at(self.family.member(row), float(times[row]))
                for row, scenario in enumerate(self.scenarios)
            ]

        return self.family.modulated(gain, stretch, offset, members)
