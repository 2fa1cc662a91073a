"""Fingerprint the shortest-path oracle's outputs, to compare two checkouts.

For sioux-falls, city-grid, braess and two-links, under free-flow costs and
three congested cost vectors, this hashes the exact bytes of every
commodity's returned path, ``all_or_nothing(...).edge_flows``, ``sptt`` and
``commodity_costs``.  Run it against two source trees and diff the output;
identical lines mean the oracle answers are bit-identical::

    PYTHONPATH=src python benchmarks/oracle_digest.py > new.txt
    PYTHONPATH=../other/src python benchmarks/oracle_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.instances import get_instance
from repro.largescale import ShortestPathOracle

INSTANCES = ("sioux-falls", "city-grid", "braess", "two-links")


def cost_vectors(network, oracle):
    """Free-flow costs plus three congested vectors over the oracle's edges."""
    free_flow = oracle.free_flow_costs(network)
    loaded = oracle.all_or_nothing(free_flow).edge_flows
    random_flows = np.random.default_rng(7).random(oracle.num_edges) * loaded.max()
    return {
        "free-flow": free_flow,
        "aon-half": oracle.latency_costs(network, 0.5 * loaded),
        "aon-full": oracle.latency_costs(network, loaded),
        "random": oracle.latency_costs(network, random_flows),
    }


def digest(network, oracle, costs) -> str:
    sha = hashlib.sha256()
    for path in oracle.shortest_commodity_paths(costs):
        sha.update(repr(path.edges).encode())
    load = oracle.all_or_nothing(costs)
    sha.update(load.edge_flows.tobytes())
    sha.update(np.float64(load.sptt).tobytes())
    sha.update(np.asarray(oracle.commodity_costs(costs), dtype=float).tobytes())
    return sha.hexdigest()[:16]


def main() -> None:
    for name in INSTANCES:
        network = get_instance(name)
        oracle = ShortestPathOracle.for_network(network)
        for label, costs in cost_vectors(network, oracle).items():
            print(f"{name:12s} {label:10s} {digest(network, oracle, costs)}")


if __name__ == "__main__":
    main()
