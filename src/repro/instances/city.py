"""Synthetic city-scale road network: grid streets plus arterial corridors.

Real city instances (Anaheim, Chicago sketch, ...) are TNTP file pairs too
large to bundle with the reproduction.  This module generates one instead: a
``blocks x blocks`` street grid with bidirectional links between adjacent
intersections, where every ``arterial_every``-th row and column is an
*arterial* -- higher capacity and higher speed than the side streets -- so
shortest routes concentrate on a sparse sub-grid exactly like real cities.
At the default 16 blocks this yields ``2 * 2 * 16 * 15 = 960`` directed
links, the road-network scale the batched column-generation driver and the
CSR incidence tier are built for.

The generator does not build the network directly: it emits TNTP text
(:func:`city_tntp_text`) and loads it through
:func:`repro.instances.tntp.load_tntp_from_text`, the same code path that
parses Anaheim-class files.  That guarantees the synthetic city is
TNTP-convertible by construction (``repro`` can round-trip it to disk and
back) and keeps unit conversion identical to the real fixtures.

Demand is seeded between periphery intersections (trips crossing town have
to pick arterials vs. side streets), calibrated to mild congestion so the
column-generation duality-gap certificates can reach ``<= 1e-3``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..wardrop.network import WardropNetwork
from .tntp import load_tntp_from_text

# Raw TNTP units: capacities in vehicles/hour, lengths in blocks, times in
# minutes (free-flow time = length / speed * 60).  Arterials move ~3x the
# volume at ~1.6x the speed of side streets.
STREET_CAPACITY = 900.0
ARTERIAL_CAPACITY = 2700.0
STREET_SPEED = 30.0
ARTERIAL_SPEED = 48.0
BPR_ALPHA = 0.15
BPR_BETA = 4


def _node(row: int, col: int, blocks: int) -> int:
    """TNTP node id of intersection (row, col); ids are 1-based row-major."""
    return row * blocks + col + 1


def _link_row(
    tail: int, head: int, arterial: bool, length: float = 1.0
) -> str:
    capacity = ARTERIAL_CAPACITY if arterial else STREET_CAPACITY
    speed = ARTERIAL_SPEED if arterial else STREET_SPEED
    free_flow_time = length / speed * 60.0
    return (
        f"{tail} {head} {capacity:.1f} {length:.1f} {free_flow_time:.6f} "
        f"{BPR_ALPHA} {BPR_BETA} {speed:.1f} 0 1 ;"
    )


def _periphery_nodes(blocks: int) -> List[int]:
    """Intersections on the city boundary, in increasing id order."""
    nodes = []
    for row in range(blocks):
        for col in range(blocks):
            if row in (0, blocks - 1) or col in (0, blocks - 1):
                nodes.append(_node(row, col, blocks))
    return nodes


def city_tntp_text(
    blocks: int = 16,
    arterial_every: int = 4,
    od_pairs: int = 12,
    demand: float = 600.0,
    seed: int = 17,
) -> Tuple[str, str]:
    """Generate the ``(net_text, trips_text)`` TNTP pair of a synthetic city.

    Parameters
    ----------
    blocks:
        Grid side length; the city has ``blocks**2`` intersections and
        ``4 * blocks * (blocks - 1)`` directed links.
    arterial_every:
        Every ``arterial_every``-th row (horizontal links) and column
        (vertical links) is an arterial.
    od_pairs:
        Number of origin--destination pairs, sampled between distinct
        periphery intersections.
    demand:
        Mean raw demand per OD pair (vehicles); each pair draws uniformly
        from ``[0.75, 1.25] * demand``.
    seed:
        Seed for the OD sampling; the network text is fully deterministic.
    """
    if blocks < 2:
        raise ValueError("a city needs at least 2x2 blocks")
    if arterial_every < 1:
        raise ValueError("arterial_every must be positive")
    if od_pairs < 1:
        raise ValueError("od_pairs must be positive")

    link_rows: List[str] = []
    for row in range(blocks):
        for col in range(blocks):
            here = _node(row, col, blocks)
            if col + 1 < blocks:
                east = _node(row, col + 1, blocks)
                arterial = row % arterial_every == 0
                link_rows.append(_link_row(here, east, arterial))
                link_rows.append(_link_row(east, here, arterial))
            if row + 1 < blocks:
                south = _node(row + 1, col, blocks)
                arterial = col % arterial_every == 0
                link_rows.append(_link_row(here, south, arterial))
                link_rows.append(_link_row(south, here, arterial))

    num_nodes = blocks * blocks
    net_text = "\n".join(
        [
            f"<NUMBER OF ZONES> {num_nodes}",
            f"<NUMBER OF NODES> {num_nodes}",
            "<FIRST THRU NODE> 1",
            f"<NUMBER OF LINKS> {len(link_rows)}",
            "<END OF METADATA>",
            "~ \tTail\tHead\tCapacity\tLength\tFFT\tB\tPower\tSpeed\tToll\tType\t;",
            *link_rows,
            "",
        ]
    )

    periphery = _periphery_nodes(blocks)
    max_pairs = len(periphery) * (len(periphery) - 1)
    if od_pairs > max_pairs:
        raise ValueError(
            f"od_pairs={od_pairs} exceeds the {max_pairs} distinct periphery pairs"
        )
    rng = np.random.default_rng(seed)
    pairs: List[Tuple[int, int]] = []
    chosen = set()
    while len(pairs) < od_pairs:
        origin, destination = rng.choice(periphery, size=2, replace=False)
        pair = (int(origin), int(destination))
        if pair not in chosen:
            chosen.add(pair)
            pairs.append(pair)
    # Round demands to cents so the emitted text reproduces the total the
    # header declares exactly (the parser cross-checks <TOTAL OD FLOW>).
    volumes = {
        pair: round(float(demand * rng.uniform(0.75, 1.25)), 2) for pair in pairs
    }
    total = round(sum(volumes.values()), 2)

    trip_lines: List[str] = []
    for origin in sorted({pair[0] for pair in volumes}):
        trip_lines.append(f"Origin {origin}")
        for (o, destination), volume in sorted(volumes.items()):
            if o == origin:
                trip_lines.append(f"    {destination} : {volume:.2f};")
    trips_text = "\n".join(
        [
            f"<NUMBER OF ZONES> {num_nodes}",
            f"<TOTAL OD FLOW> {total:.2f}",
            "<END OF METADATA>",
            *trip_lines,
            "",
        ]
    )
    return net_text, trips_text


def synthetic_city_network(
    blocks: int = 16,
    arterial_every: int = 4,
    od_pairs: int = 12,
    demand: float = 600.0,
    seed: int = 17,
    name: Optional[str] = None,
    max_od_pairs: Optional[int] = None,
) -> WardropNetwork:
    """Build the synthetic city as a restricted :class:`WardropNetwork`.

    Generates TNTP text with :func:`city_tntp_text` and loads it through the
    standard TNTP loader, so the result behaves exactly like a loaded
    Anaheim-class instance: one free-flow shortest path per commodity,
    ``total_demand`` recorded in ``graph.graph``.
    """
    net_text, trips_text = city_tntp_text(
        blocks=blocks,
        arterial_every=arterial_every,
        od_pairs=od_pairs,
        demand=demand,
        seed=seed,
    )
    if name is None:
        name = f"city-grid-{blocks}x{blocks}"
    return load_tntp_from_text(
        net_text,
        trips_text,
        name=name,
        max_od_pairs=max_od_pairs,
    )
