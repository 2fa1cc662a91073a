"""TNTP road-network instances: parser, loader and the Sioux Falls fixture.

The TNTP format (https://github.com/bstabler/TransportationNetworks) is the
de-facto standard exchange format of the traffic-assignment literature: a
``_net.tntp`` file lists directed links with BPR volume-delay parameters
behind a ``<KEY> value`` metadata header, and a ``_trips.tntp`` file lists
the origin--destination demand matrix.  This module parses both, converts
them into the normalised Wardrop model of the reproduction and registers the
bundled Sioux Falls instance (24 nodes, 76 links, 528 OD pairs).

Unit conversion.  The paper's model routes a total demand of one over
latency functions defined on ``[0, 1]``.  A TNTP instance with raw total
demand ``R`` is converted by dividing all demands *and all link capacities*
by ``R``: a normalised flow share ``x`` then experiences exactly the latency
the raw instance assigns to the raw flow ``R * x`` (BPR depends on flow only
through ``flow / capacity``).  Latency values keep their raw units
(minutes), and raw total system travel time is recovered as ``R *
sum_e x_e * l_e(x_e)`` -- the loader records ``R`` in
``graph.graph["total_demand"]``.

Loaded networks are *restricted*: each commodity is seeded with its
free-flow shortest path (one Dijkstra per origin), and no full path
enumeration ever runs -- growing the route set is the job of
:mod:`repro.largescale.columns`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Dict, List, Optional, Tuple, Union

import networkx as nx

from ..largescale.shortest import ShortestPathOracle
from ..wardrop.commodity import Commodity
from ..wardrop.latency import BPRLatency
from ..wardrop.network import LATENCY_ATTR, WardropNetwork
from ..wardrop.paths import PathSet

DATA_DIR = FilePath(__file__).parent / "data"
SIOUX_FALLS_NET = DATA_DIR / "siouxfalls_net.tntp"
SIOUX_FALLS_TRIPS = DATA_DIR / "siouxfalls_trips.tntp"

# Reference equilibrium total system travel time of the bundled fixture (raw
# TNTP units: vehicle-minutes), computed by the edge-flow Frank--Wolfe solver
# at relative duality gap <= 5e-5 (TSTT is stable to ~0.003% across
# tolerances there).  The round-trip test accepts 0.5% around it.
SIOUX_FALLS_REFERENCE_TSTT = 7_459_000.0


@dataclass(frozen=True)
class TntpLink:
    """One parsed ``_net.tntp`` link row (raw TNTP units)."""

    init_node: int
    term_node: int
    capacity: float
    length: float
    free_flow_time: float
    b: float
    power: float
    speed: float
    toll: float
    link_type: int


def _strip_tntp(text: str) -> List[str]:
    """Return the semantically relevant lines: no comments, no blanks.

    ``~`` starts a comment that runs to the end of the line (the format also
    uses a leading ``~`` for the column-header line).  ``;`` is left in
    place because its meaning is per-section: a row terminator in net files
    (dropped by :func:`parse_tntp_network`) but the entry separator in trips
    files (split on by :func:`parse_tntp_trips`).
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("~", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _parse_metadata(lines: List[str]) -> Tuple[Dict[str, str], int]:
    """Parse the ``<KEY> value`` header; returns (metadata, body offset).

    The header ends at ``<END OF METADATA>``.  A malformed header line (a
    ``<`` without its closing ``>``) raises ``ValueError`` rather than being
    silently skipped.
    """
    metadata: Dict[str, str] = {}
    for offset, line in enumerate(lines):
        if not line.startswith("<"):
            # Header ended without the canonical sentinel; tolerate it.
            return metadata, offset
        match = re.match(r"^<([^<>]*)>\s*(.*)$", line)
        if match is None:
            raise ValueError(f"malformed TNTP metadata line: {line!r}")
        key = match.group(1).strip().upper()
        if key == "END OF METADATA":
            return metadata, offset + 1
        metadata[key] = match.group(2).strip()
    return metadata, len(lines)


def _metadata_number(metadata: Dict[str, str], key: str) -> Optional[float]:
    value = metadata.get(key)
    if value is None or value == "":
        return None
    try:
        return float(value)
    except ValueError as error:
        raise ValueError(f"TNTP metadata <{key}> is not a number: {value!r}") from error


# BPR fields checked at parse time: (field, must be strictly positive).
_BPR_FIELDS = (("capacity", True), ("free_flow_time", False), ("b", False), ("power", False))


def parse_tntp_network(text: str) -> Tuple[Dict[str, str], List[TntpLink]]:
    """Parse a ``_net.tntp`` file into metadata and link rows.

    Raises ``ValueError`` on malformed metadata, malformed link rows, a
    link count that contradicts the ``<NUMBER OF LINKS>`` header, or BPR
    parameters outside their domain (capacity finite and positive; free-flow
    time, ``b`` and power finite and non-negative), naming the row and the
    field.
    """
    lines = _strip_tntp(text)
    metadata, offset = _parse_metadata(lines)
    links: List[TntpLink] = []
    for line in lines[offset:]:
        # ';' terminates a link row; spacing around it varies across the
        # TransportationNetworks files (some glue it to the last field).
        fields = line.replace(";", " ").split()
        if len(fields) < 10:
            raise ValueError(f"malformed TNTP link row ({len(fields)} fields): {line!r}")
        link = TntpLink(
            init_node=int(fields[0]),
            term_node=int(fields[1]),
            capacity=float(fields[2]),
            length=float(fields[3]),
            free_flow_time=float(fields[4]),
            b=float(fields[5]),
            power=float(fields[6]),
            speed=float(fields[7]),
            toll=float(fields[8]),
            link_type=int(float(fields[9])),
        )
        for name, positive in _BPR_FIELDS:
            value = getattr(link, name)
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                domain = "finite and positive" if positive else "finite and non-negative"
                raise ValueError(
                    f"TNTP link row {line!r}: {name} must be {domain}, got {value}"
                )
        links.append(link)
    declared = _metadata_number(metadata, "NUMBER OF LINKS")
    if declared is not None and int(declared) != len(links):
        raise ValueError(
            f"TNTP header declares {int(declared)} links, file has {len(links)}"
        )
    return metadata, links


def parse_tntp_trips(text: str) -> Tuple[Dict[str, str], Dict[Tuple[int, int], float]]:
    """Parse a ``_trips.tntp`` file into metadata and an OD demand map.

    Zero-demand pairs and self-loops are dropped (they carry no flow).  The
    declared ``<TOTAL OD FLOW>`` is cross-checked against the parsed total
    (including the dropped zero/diagonal entries, which contribute nothing).
    """
    lines = _strip_tntp(text)
    metadata, offset = _parse_metadata(lines)
    demands: Dict[Tuple[int, int], float] = {}
    origin: Optional[int] = None
    total = 0.0
    for line in lines[offset:]:
        if line.lower().startswith("origin"):
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"malformed TNTP origin line: {line!r}")
            origin = int(fields[1])
            continue
        if origin is None:
            raise ValueError(f"TNTP trips row before any 'Origin' line: {line!r}")
        for entry in line.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if ":" not in entry:
                raise ValueError(f"malformed TNTP trips entry: {entry!r}")
            destination_text, demand_text = entry.split(":", 1)
            destination = int(destination_text)
            demand = float(demand_text)
            if not (math.isfinite(demand) and demand >= 0):
                raise ValueError(
                    f"TNTP demand of OD ({origin}, {destination}) must be finite "
                    f"and non-negative: {entry!r}"
                )
            total += demand
            if demand > 0 and destination != origin:
                demands[(origin, destination)] = demands.get(
                    (origin, destination), 0.0
                ) + demand
    declared = _metadata_number(metadata, "TOTAL OD FLOW")
    if declared is not None and abs(declared - total) > max(1e-6 * max(declared, 1.0), 1e-9):
        raise ValueError(
            f"TNTP header declares total OD flow {declared}, file sums to {total}"
        )
    return metadata, demands


def load_tntp_instance(
    net_path: Union[str, FilePath],
    trips_path: Union[str, FilePath],
    name: str = "",
    max_od_pairs: Optional[int] = None,
) -> WardropNetwork:
    """Build a restricted :class:`WardropNetwork` from a TNTP file pair.

    Parameters
    ----------
    net_path / trips_path:
        The ``_net.tntp`` and ``_trips.tntp`` files.
    name:
        Stored in ``graph.graph["name"]`` for reports.
    max_od_pairs:
        Optionally keep only the ``K`` highest-demand OD pairs (ties broken
        by OD ids) -- the down-scaled variants used by fast tests.

    The returned network carries ``first_thru_node``, ``total_demand`` (the
    raw trips before normalisation, *after* any ``max_od_pairs`` filter) and
    ``name`` in ``graph.graph``; its path set holds exactly one free-flow
    shortest path per commodity and is meant to grow by column generation.
    """
    net_text = FilePath(net_path).read_text()
    trips_text = FilePath(trips_path).read_text()
    return load_tntp_from_text(
        net_text,
        trips_text,
        name=name,
        max_od_pairs=max_od_pairs,
    )


def load_tntp_from_text(
    net_text: str,
    trips_text: str,
    name: str = "",
    max_od_pairs: Optional[int] = None,
) -> WardropNetwork:
    """Build a restricted :class:`WardropNetwork` from TNTP file *contents*.

    Same conversion as :func:`load_tntp_instance` without touching the
    filesystem -- generated instances (the synthetic city of
    :mod:`repro.instances.city`) emit TNTP text and load it through this
    exact code path, which guarantees they stay TNTP-convertible.
    """
    net_metadata, links = parse_tntp_network(net_text)
    trips_metadata, demands = parse_tntp_trips(trips_text)
    if not links:
        raise ValueError("TNTP network has no links")
    if not demands:
        raise ValueError("TNTP trips have no positive demand")

    if max_od_pairs is not None:
        if max_od_pairs < 1:
            raise ValueError("max_od_pairs must be positive")
        ranked = sorted(demands.items(), key=lambda item: (-item[1], item[0]))
        demands = dict(ranked[:max_od_pairs])

    total = sum(demands.values())
    first_thru = _metadata_number(net_metadata, "FIRST THRU NODE")
    first_thru_node = int(first_thru) if first_thru is not None else None

    graph = nx.MultiDiGraph()
    for link in links:
        power = link.power
        if abs(power - round(power)) > 1e-9 or round(power) < 1:
            raise ValueError(
                f"BPR power must be a positive integer, link "
                f"{link.init_node}->{link.term_node} has {power}"
            )
        graph.add_edge(
            link.init_node,
            link.term_node,
            **{
                LATENCY_ATTR: BPRLatency(
                    free_flow_time=link.free_flow_time,
                    capacity=link.capacity / total,
                    alpha=link.b,
                    beta=int(round(power)),
                )
            },
        )
    graph.graph["name"] = name
    graph.graph["total_demand"] = total
    if first_thru_node is not None:
        graph.graph["first_thru_node"] = first_thru_node
    declared_zones = _metadata_number(net_metadata, "NUMBER OF ZONES")
    if declared_zones is not None:
        graph.graph["num_zones"] = int(declared_zones)

    commodities = [
        Commodity(source=o, sink=d, demand=demand, name=f"{o}->{d}")
        for (o, d), demand in sorted(demands.items())
    ]
    oracle = ShortestPathOracle(graph, commodities, first_thru_node=first_thru_node)
    seeds = oracle.shortest_commodity_paths(oracle.free_flow_costs())
    return WardropNetwork(
        graph,
        commodities,
        normalise=True,
        paths=PathSet([[seed] for seed in seeds]),
    )


def sioux_falls_network(max_od_pairs: Optional[int] = None) -> WardropNetwork:
    """Load the bundled Sioux Falls instance (24 nodes / 76 links / 528 OD pairs)."""
    return load_tntp_instance(
        SIOUX_FALLS_NET,
        SIOUX_FALLS_TRIPS,
        name="sioux-falls",
        max_od_pairs=max_od_pairs,
    )
