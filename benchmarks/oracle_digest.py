"""Fingerprint the oracle's and the latency table's outputs, to compare two checkouts.

For sioux-falls, city-grid, braess and two-links, under free-flow costs and
three congested cost vectors, this hashes the exact bytes of every
commodity's returned path, ``all_or_nothing(...).edge_flows``, ``sptt`` and
``commodity_costs``.  It also hashes, per instance, ``edge_latencies`` at
three edge-flow vectors, one at a time and as one ``(3, E)`` batch; one
``incidence`` line for the 2-commodity 3x3 grid (``edge_flows`` and
``path_latencies`` of three ``(P,)`` path flows, so a change of the
incidence products' summation order shows up); one
``ScenarioEnsemble.family_at(...).edge_latencies_batch`` on Sioux Falls with
a capacity-drop incident and a closure; and the Sioux Falls edge-flow
``fw``/``cfw``/``bfw`` solves at relative gap 1e-3 as ``iterations``, the
relative gap bytes and the potential bytes.  The ``fluid`` lines hash the
times and flow matrix of ``simulate(...)`` on braess, pigou-quadratic,
two-links-steep and parallel-8-affine under stale and fresh information, plus
one stale run through a Braess shortcut closure, one one-row
``simulate_batch`` run ended by a ``stop_when`` batch predicate and
stale/fresh runs on ``sioux-mini-ragged`` -- sioux-falls-mini's
free-flow shortest paths after one ``ActivePathSet.augment`` at the
all-or-nothing load, so its 40 commodities have one or two paths and the
commodity blocks are padded.  The ``agents`` lines do the same for
``simulate_agents`` on braess, parallel-8-affine, sioux-falls-mini and
sioux-mini-ragged (n = 2000, 12 phases, stale and fresh), a capacity-drop
scenario run and a one-row ``simulate_agent_batch`` ``stop_when`` run; the
``cg`` lines hash ``simulate_with_column_generation``'s trajectory and
eviction events on braess (open and closed), sioux-falls-mini (open), a
braess closure scenario and a two-links-steep ``stop_when`` run through
``simulate_with_column_generation_batch(batch=1)``.  The ``cg-batch``
line runs ``simulate_with_column_generation_batch`` on sioux-falls-mini with
three open-mode rows that close the three busiest links at staggered times,
and hashes the flows, the final path order, the growth and eviction events
and the duality gaps.  Run it against two source trees and diff the output;
identical lines mean bit-identical answers::

    PYTHONPATH=src python benchmarks/oracle_digest.py > new.txt
    PYTHONPATH=../other/src python benchmarks/oracle_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.batch import simulate_agent_batch, simulate_batch
from repro.core import replicator_policy, simulate, simulate_agents, uniform_policy
from repro.instances import get_instance, grid_network, lopsided_flow
from repro.largescale import (
    ActivePathSet,
    ShortestPathOracle,
    simulate_with_column_generation,
    simulate_with_column_generation_batch,
)
from repro.scenarios import LinkIncident, Scenario, ScenarioEnsemble
from repro.solvers import solve_edge_flow_equilibrium
from repro.wardrop import FlowVector, NetworkFamily, equilibrium_violation

INSTANCES = ("sioux-falls", "city-grid", "braess", "two-links")
FW_METHODS = ("fw", "cfw", "bfw")
FW_GAP = 1e-3
RAGGED = "sioux-mini-ragged"
FLUID_INSTANCES = ("braess", "pigou-quadratic", "two-links-steep", "parallel-8-affine")
AGENT_INSTANCES = ("braess", "parallel-8-affine", "sioux-falls-mini")


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


def hash_arrays(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()[:16]


def edge_flow_vectors(network) -> np.ndarray:
    """Three ``(E,)`` edge-flow vectors: uniform, random and overloaded."""
    rng = np.random.default_rng(11)
    uniform = network.edge_flows(np.full(network.num_paths, 1.0 / network.num_paths))
    random_flows = network.edge_flows(rng.dirichlet(np.ones(network.num_paths)))
    return np.stack([uniform, random_flows, 3.0 * random_flows])


def latency_digest(network) -> str:
    flows = edge_flow_vectors(network)
    singles = [network.edge_latencies(row) for row in flows]
    return hash_arrays(*singles, network.edge_latencies(flows))


def incidence_digest(network) -> str:
    """``edge_flows`` and ``path_latencies`` of three ``(P,)`` path flows."""
    rng = np.random.default_rng(5)
    random_flows = rng.dirichlet(np.ones(network.num_paths))
    flows = [np.full(network.num_paths, 1.0 / network.num_paths), random_flows, 3.0 * random_flows]
    return hash_arrays(
        *(network.edge_flows(row) for row in flows),
        *(network.path_latencies(row) for row in flows),
    )


def incident_family_digest() -> str:
    """One phase of a four-row Sioux Falls ensemble: idle, drop, closure, idle."""
    network = get_instance("sioux-falls")
    busiest = network.edges[int(np.argmax(edge_flow_vectors(network)[0]))]
    scenarios = [
        None,
        Scenario(incidents=[LinkIncident(busiest, 0.0, 1.0, capacity_factor=0.35)]),
        Scenario(incidents=[LinkIncident(busiest, 0.0, 1.0, closure_penalty=50.0)]),
        Scenario(incidents=[LinkIncident(busiest, 2.0, 3.0, capacity_factor=0.35)]),
    ]
    replicas = NetworkFamily.replicate(network, len(scenarios))
    family = ScenarioEnsemble(replicas, scenarios).family_at(np.full(len(scenarios), 0.5))
    flows = np.tile(edge_flow_vectors(network)[1], (len(scenarios), 1))
    flows *= np.linspace(0.5, 2.0, len(scenarios))[:, None]
    return hash_arrays(family.edge_latencies_batch(flows))


def violation_below(network, tolerance, min_paths=1):
    """A one-row ``stop_when`` predicate: the row has at least ``min_paths``
    paths and its equilibrium violation on ``network()`` is below ``tolerance``."""

    def predicate(times, flows, rows):
        if flows.shape[1] < min_paths:
            return np.array([False])
        flow = FlowVector(network(), flows[0], validate=False)
        return np.array([equilibrium_violation(flow) < tolerance])

    return predicate


def trajectory_digest(trajectory) -> str:
    return f"{len(trajectory):4d} {hash_arrays(trajectory.times, trajectory.flow_matrix())}"


def ragged_network():
    """sioux-falls-mini restricted to its free-flow shortest paths plus one
    augmentation at the all-or-nothing load: one or two paths per commodity."""
    mini = get_instance("sioux-falls-mini")
    active = ActivePathSet.from_network(mini)
    loaded = active.oracle.all_or_nothing(active.oracle.free_flow_costs(mini)).edge_flows
    active.augment(active.oracle.latency_costs(mini, loaded))
    return active.network


def ragged_policy(network):
    """Replicator dynamics with l_max near the ragged instance's path latencies
    (its network-wide l_max is ~10^4 times larger, so almost nothing would move)."""
    return replicator_policy(network, max_latency=40.0, exploration=0.05)


def fluid_lines():
    """``simulate`` runs: 50 phases of T = 0.1 from a random start per instance."""
    for name in FLUID_INSTANCES:
        network = get_instance(name)
        policy = replicator_policy(network)
        start = FlowVector.random(network, np.random.default_rng(5))
        for stale in (True, False):
            trajectory = simulate(
                network, policy, update_period=0.1, horizon=5.0, initial_flow=start,
                stale=stale,
            )
            yield name, "stale" if stale else "fresh", trajectory_digest(trajectory)
    braess = get_instance("braess")
    closure = Scenario(
        incidents=[LinkIncident(("a", "b", 0), 1.0, 2.0, capacity_factor=0.0, closure_penalty=10.0)]
    )
    trajectory = simulate(
        braess, uniform_policy(braess), update_period=0.1, horizon=3.0, scenario=closure
    )
    yield "braess", "closure", trajectory_digest(trajectory)
    steep = get_instance("two-links-steep")
    result = simulate_batch(
        steep, replicator_policy(steep), [0.1], 100.0,
        initial_flows=lopsided_flow(steep, 0.95),
        stop_when=violation_below(lambda: steep, 1e-3),
    )
    yield "two-links-steep", "stop-when", trajectory_digest(result.trajectory(0))
    ragged = ragged_network()
    start = FlowVector.random(ragged, np.random.default_rng(5))
    for stale in (True, False):
        trajectory = simulate(
            ragged, ragged_policy(ragged), update_period=0.1, horizon=2.0,
            initial_flow=start, stale=stale,
        )
        yield RAGGED, "stale" if stale else "fresh", trajectory_digest(trajectory)


def agent_lines():
    """``simulate_agents`` runs: n = 2000, 12 phases of T = 0.1, random start."""
    for name in AGENT_INSTANCES:
        network = get_instance(name)
        policy = replicator_policy(network, exploration=0.05)
        start = FlowVector.random(network, np.random.default_rng(5))
        for stale in (True, False):
            trajectory = simulate_agents(
                network, policy, num_agents=2000, update_period=0.1, horizon=1.2,
                initial_flow=start, seed=3, stale=stale,
            )
            yield name, "stale" if stale else "fresh", trajectory_digest(trajectory)
    ragged = ragged_network()
    start = FlowVector.random(ragged, np.random.default_rng(5))
    for stale in (True, False):
        trajectory = simulate_agents(
            ragged, ragged_policy(ragged), num_agents=2000, update_period=0.1, horizon=1.2,
            initial_flow=start, seed=3, stale=stale,
        )
        yield RAGGED, "stale" if stale else "fresh", trajectory_digest(trajectory)
    braess = get_instance("braess")
    drop = Scenario(incidents=[LinkIncident(("s", "a", 0), 0.3, 0.9, capacity_factor=0.3)])
    for stale in (True, False):
        trajectory = simulate_agents(
            braess, uniform_policy(braess), num_agents=2000, update_period=0.1,
            horizon=1.2, seed=4, stale=stale, scenario=drop,
        )
        yield "braess", f"drop-{'stale' if stale else 'fresh'}", trajectory_digest(trajectory)
    steep = get_instance("two-links-steep")
    result = simulate_agent_batch(
        steep, replicator_policy(steep, exploration=0.05), 2000, 0.1, 20.0,
        initial_flows=lopsided_flow(steep, 0.95), seeds=5,
        stop_when=violation_below(lambda: steep, 0.05),
    )
    yield "two-links-steep", "stop-when", trajectory_digest(result.trajectory(0))


def cg_digest(result) -> str:
    evictions = np.array([[phase, volume] for phase, volume in result.eviction_events])
    return f"{trajectory_digest(result.trajectory)} {hash_arrays(evictions, result.path_counts)}"


def cg_batch_row_digest(result) -> str:
    """:func:`cg_digest` of row 0 of a one-row batched column-generation run."""
    evictions = np.array([[phase, volume] for phase, _, volume in result.eviction_events])
    return (
        f"{trajectory_digest(result.trajectory(0))} "
        f"{hash_arrays(evictions, result.path_counts)}"
    )


def cg_lines():
    """``simulate_with_column_generation`` runs: T = 0.1, 10 sub-steps per phase."""
    braess = get_instance("braess")
    for closed in (False, True):
        result = simulate_with_column_generation(
            ActivePathSet.from_network(braess, closed=closed), uniform_policy(braess),
            update_period=0.1, horizon=2.0,
        )
        yield "braess", "closed" if closed else "open", cg_digest(result)
    mini = get_instance("sioux-falls-mini")
    result = simulate_with_column_generation(
        ActivePathSet.from_network(mini), replicator_policy(mini, exploration=0.05),
        update_period=0.1, horizon=1.0,
    )
    yield "sioux-falls-mini", "open", cg_digest(result)
    closure = Scenario(
        incidents=[LinkIncident(("a", "b", 0), 0.5, 1.5, capacity_factor=0.0, closure_penalty=10.0)]
    )
    result = simulate_with_column_generation(
        ActivePathSet.from_network(braess), uniform_policy(braess),
        update_period=0.1, horizon=2.0, scenario=closure,
    )
    yield "braess", "closure", cg_digest(result)
    steep = get_instance("two-links-steep")
    active = ActivePathSet.from_network(steep)
    result = simulate_with_column_generation_batch(
        active, replicator_policy(steep, exploration=0.05),
        update_period=0.1, horizon=100.0, batch=1,
        stop_when=violation_below(lambda: active.network, 1e-2, min_paths=2),
    )
    yield "two-links-steep", "stop-when", cg_batch_row_digest(result)


def cg_batch_line() -> str:
    """Three open-mode rows on one growing path set: row ``r`` closes the
    ``r``-th busiest link of the free-flow load over ``[r + 1, r + 6)``.

    The staggered closures make two rows discover different columns in the
    same phase, so the line also fixes the order in which the rows' queries
    grow the set."""
    mini = get_instance("sioux-falls-mini")
    active = ActivePathSet.from_network(mini)
    oracle = active.oracle
    loaded = oracle.all_or_nothing(oracle.free_flow_costs(mini)).edge_flows
    busiest = np.argsort(-loaded, kind="stable")[:3]
    scenarios = [
        Scenario(
            incidents=[
                LinkIncident(
                    oracle.edges[int(edge)], row + 1.0, row + 6.0,
                    capacity_factor=0.0, closure_penalty=50.0,
                )
            ]
        )
        for row, edge in enumerate(busiest)
    ]
    result = simulate_with_column_generation_batch(
        active, lambda network: replicator_policy(network, max_latency=10.0, exploration=0.05),
        update_period=1.0, horizon=10.0, scenarios=scenarios,
    )
    sha = hashlib.sha256()
    sha.update(repr([(path.commodity_index, path.edges) for path in active.path_set()]).encode())
    for phase, added in result.growth_events:
        sha.update(repr((phase, [(path.commodity_index, path.edges) for path in added])).encode())
    sha.update(repr(result.eviction_events).encode())
    return f"{hash_arrays(result.flows, result.duality_gaps)} {sha.hexdigest()[:16]}"


def main() -> None:
    for name in INSTANCES:
        network = get_instance(name)
        oracle = ShortestPathOracle.for_network(network)
        for label, costs in cost_vectors(network, oracle).items():
            print(f"{name:12s} {label:10s} {digest(network, oracle, costs)}")
    for name in INSTANCES:
        print(f"{name:12s} {'latencies':10s} {latency_digest(get_instance(name))}")
    grid = grid_network(3, 3, num_commodities=2, seed=3)
    print(f"{'grid-3x3-c2':12s} {'incidence':10s} {incidence_digest(grid)}")
    print(f"{'sioux-falls':12s} {'family-at':10s} {incident_family_digest()}")
    network = get_instance("sioux-falls")
    oracle = ShortestPathOracle.for_network(network)
    for method in FW_METHODS:
        result = solve_edge_flow_equilibrium(
            network, tolerance=FW_GAP, oracle=oracle, method=method
        )
        gap = np.float64(result.relative_gap).tobytes().hex()
        potential = np.float64(result.potential_value).tobytes().hex()
        print(f"{'sioux-falls':12s} {method:10s} {result.iterations} {gap} {potential}")
    for name, label, line in fluid_lines():
        print(f"{name:17s} fluid {label:11s} {line}")
    for name, label, line in agent_lines():
        print(f"{name:17s} agents {label:11s} {line}")
    for name, label, line in cg_lines():
        print(f"{name:17s} cg {label:11s} {line}")
    print(f"{'sioux-falls-mini':17s} cg-batch {'open':11s} {cg_batch_line()}")


if __name__ == "__main__":
    main()
