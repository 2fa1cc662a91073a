"""The four benchmark workloads: inputs from a seed, one timed job, output checks.

Each workload is a closed loop with one caller: ``setup(seed)`` builds the
job's inputs (instances, grown path sets, reference solves), ``job(inputs)``
is the study a user waits for, and ``check(inputs, outputs)`` returns one
``(name, passed)`` pair per output check.  Checks use tolerances, never
bit-equality, so a change that only reorders a reduction does not fail them.
``work(outputs)`` is the workload's unit of work: bulletin-board phases
integrated, summed over rows, for the dynamics workloads and Frank--Wolfe
iterations for ``sf-equilibrium``.

The engines receive only the generated inputs; the seed itself never
reaches them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.analysis import SweepCase, phase_potential_stats
from repro.batch.engine import BatchConfig, BatchSimulator
from repro.core import ReroutingPolicy, ScaledLinearMigration, UniformSampling, scaled_policy
from repro.experiments.runner import run_cases
from repro.instances import get_instance, sioux_falls_network, synthetic_city_network
from repro.largescale import ActivePathSet, ShortestPathOracle
from repro.largescale.batch_columns import simulate_with_column_generation_batch
from repro.scenarios import LinkIncident, Scenario
from repro.solvers import solve_edge_flow_equilibrium
from repro.solvers.edge_frank_wolfe import relative_duality_gap
from repro.wardrop import FlowVector

Checks = List[Tuple[str, bool]]

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], object]
    job: Callable[[object], object]
    check: Callable[[object, object], Checks]
    work: Callable[[object], int]
    # The probe kernels the job's time follows on a shared host, as
    # (key of ``run.PROBE_KERNELS``, share of the job) pairs; see README.md.
    calibration: Tuple[Tuple[str, float], ...] = (("interpreter", 1.0),)


def _flows_ok(flows: np.ndarray, network, tolerance: float) -> Checks:
    """Finite, non-negative and demand-conserving ``(..., P)`` path flows."""
    finite = bool(np.all(np.isfinite(flows)))
    nonnegative = finite and bool(np.min(flows) >= -tolerance)
    conserved = finite
    if finite:
        for index, commodity in enumerate(network.commodities):
            start, stop = network.paths.commodity_slice(index)
            totals = flows[..., start:stop].sum(axis=-1)
            conserved = conserved and bool(
                np.max(np.abs(totals - commodity.demand)) <= tolerance
            )
    return [("finite", finite), ("non-negative", nonnegative), ("conserved", conserved)]


# --- paper-sweep ------------------------------------------------------------

# The paper's own experiment: T/T* from 0.25 to 8 times the Lemma 4 safe
# period.  Per-instance smoothness alpha; two-links-steep and pigou-quadratic
# share a topology, so they fuse into one family with two policy objects.
SWEEP_INSTANCES = {
    "two-links-steep": 4.0,
    "braess": 2.0,
    "pigou-quadratic": 2.0,
    "parallel-8-affine": 1.0,
}
SWEEP_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
SWEEP_PHASES = 40
AGENT_PHASES = 8
SWEEP_STEPS = 10
FRESH_STARTS = 4
STALE_AGENTS = 100_000
FRESH_AGENTS = (1_000, 3_000)
LEMMA4_SLACK = 1e-7
CONSERVATION_TOL = 1e-9


def sweep_row(trajectory) -> Dict[str, object]:
    stats = phase_potential_stats(trajectory, slack=LEMMA4_SLACK)
    return {
        "phases": len(trajectory.phases),
        "lemma4_violations": stats.lemma4_violations,
        "max_phi_increase": stats.max_potential_increase,
        "final_latency": trajectory.final_flow.average_latency(),
        # Kept for the untimed output checks.
        "_flows": trajectory.flow_matrix(),
        "_network": trajectory.network,
    }


def paper_sweep_setup(seed: int):
    rng = np.random.default_rng(seed)
    cases: List[SweepCase] = []
    for name, alpha in SWEEP_INSTANCES.items():
        network = get_instance(name)
        policy = scaled_policy(alpha)
        safe = policy.safe_update_period(network)
        for ratio in SWEEP_RATIOS:
            period = ratio * safe
            cases.append(
                SweepCase(
                    parameters={"instance": name, "model": "fluid-stale", "T/T*": ratio},
                    network=network,
                    policy=policy,
                    update_period=period,
                    horizon=SWEEP_PHASES * period,
                    initial_flow=FlowVector.random(network, rng),
                    steps_per_phase=SWEEP_STEPS,
                )
            )
        for _ in range(FRESH_STARTS):
            cases.append(
                SweepCase(
                    parameters={"instance": name, "model": "fluid-fresh", "T/T*": 1.0},
                    network=network,
                    policy=policy,
                    update_period=safe,
                    horizon=SWEEP_PHASES * safe,
                    initial_flow=FlowVector.random(network, rng),
                    stale=False,
                    steps_per_phase=SWEEP_STEPS,
                )
            )
        for ratio in (1.0, 4.0):
            cases.append(
                SweepCase(
                    parameters={"instance": name, "model": "agents-stale", "T/T*": ratio},
                    network=network,
                    policy=policy,
                    update_period=ratio * safe,
                    horizon=AGENT_PHASES * ratio * safe,
                    method="agents",
                    num_agents=STALE_AGENTS,
                    seed=int(rng.integers(2**31)),
                )
            )
        for agents in FRESH_AGENTS:
            cases.append(
                SweepCase(
                    parameters={"instance": name, "model": "agents-fresh", "T/T*": 1.0},
                    network=network,
                    policy=policy,
                    update_period=safe,
                    horizon=AGENT_PHASES * safe,
                    stale=False,
                    method="agents",
                    num_agents=agents,
                    seed=int(rng.integers(2**31)),
                )
            )
    return cases


def paper_sweep_job(cases):
    return run_cases(cases, sweep_row, engine="auto")


def paper_sweep_check(cases, result) -> Checks:
    checks: Checks = [("one row per case", len(result.rows) == len(cases))]
    for row in result.rows:
        label = f"{row['instance']}/{row['model']}/T/T*={row['T/T*']:g}"
        for name, ok in _flows_ok(row["_flows"], row["_network"], CONSERVATION_TOL):
            checks.append((f"{label} {name}", ok))
        if row["model"] == "fluid-stale" and row["T/T*"] <= 1.0:
            checks.append((f"{label} lemma 4", row["lemma4_violations"] == 0))
    return checks


def paper_sweep_work(result) -> int:
    return int(sum(row["phases"] for row in result.rows))


# --- sf-incident ------------------------------------------------------------

INCIDENT_ROWS = 16
INCIDENT_FACTOR = 0.35
INCIDENT_PERIOD = 0.1
INCIDENT_STEPS = 10
INCIDENT_HORIZON = 0.5
INCIDENT_DURATION = 0.2
# Incident starts are whole update periods in [START_FIRST, START_LAST], so a
# reference final state stored per possible start covers every seed.
START_FIRST, START_LAST = 1, 4
INCIDENT_REFERENCE = os.path.join(REFERENCE_DIR, "sf_incident.npz")
INCIDENT_TOL = 1e-6


@dataclass
class IncidentInputs:
    network: object
    policy: ReroutingPolicy
    start_steps: np.ndarray
    scenarios: List[Scenario]


def incident_network():
    """Full Sioux Falls with the path set grown under equilibrium- and
    incident-priced costs, then frozen (690 paths over 528 OD pairs)."""
    network = sioux_falls_network()
    oracle = ShortestPathOracle.for_network(network)
    active = ActivePathSet.from_network(network)
    equilibrium = solve_edge_flow_equilibrium(network, tolerance=1e-3, oracle=oracle)
    active.augment(oracle.latency_costs(network, equilibrium.edge_flows))
    incident_edge = oracle.edges[int(np.argmax(equilibrium.edge_flows))]
    incident_costs = Scenario(
        incidents=[LinkIncident(incident_edge, 0.0, 1.0, capacity_factor=INCIDENT_FACTOR)]
    ).network_at(network, 0.5)
    active.augment(oracle.latency_costs(incident_costs, equilibrium.edge_flows))
    alpha = 2.0 / float(np.max(oracle.free_flow_costs(network)))
    return active.network, incident_edge, alpha


def incident_scenarios(incident_edge, start_steps) -> List[Scenario]:
    scenarios = []
    for step in start_steps:
        start = int(step) * INCIDENT_PERIOD
        scenarios.append(
            Scenario(
                name=f"incident@{start:g}",
                incidents=[
                    LinkIncident(
                        incident_edge, start, start + INCIDENT_DURATION,
                        capacity_factor=INCIDENT_FACTOR,
                    )
                ],
            )
        )
    return scenarios


def incident_policy(alpha: float) -> ReroutingPolicy:
    return ReroutingPolicy(UniformSampling(), ScaledLinearMigration(alpha), name="uniform+scaled")


def sf_incident_setup(seed: int) -> IncidentInputs:
    rng = np.random.default_rng(seed)
    network, incident_edge, alpha = incident_network()
    start_steps = np.sort(rng.integers(START_FIRST, START_LAST + 1, INCIDENT_ROWS))
    return IncidentInputs(
        network=network,
        policy=incident_policy(alpha),
        start_steps=start_steps,
        scenarios=incident_scenarios(incident_edge, start_steps),
    )


def run_incident_rows(network, policy, scenarios):
    config = BatchConfig(
        update_periods=np.full(len(scenarios), INCIDENT_PERIOD),
        horizons=INCIDENT_HORIZON,
        steps_per_phase=INCIDENT_STEPS,
    )
    return BatchSimulator(network, policy, config, scenarios=scenarios).run()


def sf_incident_job(inputs: IncidentInputs):
    return run_incident_rows(inputs.network, inputs.policy, inputs.scenarios)


def path_key(path) -> str:
    return "-".join(str(node) for node in path.nodes)


def sf_incident_check(inputs: IncidentInputs, result) -> Checks:
    """Finite and conserved rows whose final flows match the stored reference.

    The reference is keyed by path (node sequence), not by index, so a change
    that reorders the path set still compares like with like.
    """
    network = inputs.network
    checks = _flows_ok(result.flows, network, CONSERVATION_TOL)
    with np.load(INCIDENT_REFERENCE) as reference:
        paths = list(reference["paths"])
        steps = list(reference["start_steps"])
        finals = reference["final_flows"]
    keys = [path_key(path) for path in network.paths]
    covered = sorted(keys) == sorted(paths)
    checks.append(("reference covers the path set", covered))
    if not covered:
        return checks
    position = {key: index for index, key in enumerate(paths)}
    order = [position[key] for key in keys]
    scale = sum(commodity.demand for commodity in network.commodities)
    for row, step in enumerate(inputs.start_steps):
        expected = finals[steps.index(int(step))][order]
        error = float(np.max(np.abs(result.final_flow(row).values() - expected))) / scale
        checks.append((f"row {row} (start step {int(step)}) vs reference", error <= INCIDENT_TOL))
    return checks


def incident_work(result) -> int:
    return int(sum(result.num_phases(row) for row in range(result.batch_size)))


# --- city-cg ----------------------------------------------------------------

CITY_ROWS = 8
CITY_BLOCKS = 16
CITY_OD_PAIRS = 12
CITY_DEMAND = 1200.0
CITY_ALPHA_SCALE = 4.0
CITY_INCIDENT_FACTOR = 0.4
CITY_PERIOD = 0.25
CITY_STEPS = 10
CITY_HORIZON = 16.0
CITY_DURATION = 2.0
CITY_GAP = 1e-3


@dataclass
class CityInputs:
    network: object
    policy: ReroutingPolicy
    scenarios: List[Scenario]


def city_cg_setup(seed: int) -> CityInputs:
    rng = np.random.default_rng(seed)
    network = synthetic_city_network(
        blocks=CITY_BLOCKS, od_pairs=CITY_OD_PAIRS, demand=CITY_DEMAND
    )
    oracle = ShortestPathOracle.for_network(network)
    # The incident hits the busiest link at the static equilibrium, so the
    # rows must discover the detours around it.
    equilibrium = solve_edge_flow_equilibrium(network, tolerance=1e-3, oracle=oracle)
    incident_edge = oracle.edges[int(np.argmax(equilibrium.edge_flows))]
    starts = np.sort(rng.uniform(2.0, 5.0, CITY_ROWS))
    scenarios = [
        Scenario(
            name=f"incident@{start:g}",
            incidents=[
                LinkIncident(
                    incident_edge, float(start), float(start) + CITY_DURATION,
                    capacity_factor=CITY_INCIDENT_FACTOR,
                )
            ],
        )
        for start in starts
    ]
    alpha = CITY_ALPHA_SCALE / float(np.max(oracle.free_flow_costs(network)))
    return CityInputs(network=network, policy=incident_policy(alpha), scenarios=scenarios)


def city_cg_job(inputs: CityInputs):
    return simulate_with_column_generation_batch(
        ActivePathSet.from_network(inputs.network),
        inputs.policy,
        update_period=CITY_PERIOD,
        horizon=CITY_HORIZON,
        scenarios=inputs.scenarios,
        stale=True,
        steps_per_phase=CITY_STEPS,
    )


def city_cg_check(inputs: CityInputs, result) -> Checks:
    checks = _flows_ok(result.flows, result.network, CONSERVATION_TOL)
    for row, gap in enumerate(result.duality_gaps):
        checks.append((f"row {row} gap {gap:.2e} <= {CITY_GAP:g}", bool(gap <= CITY_GAP)))
    return checks


def city_cg_work(result) -> int:
    return int(result.batch_size * len(result.phase_spans))


# --- sf-equilibrium ---------------------------------------------------------

EQUILIBRIUM_METHODS = ("fw", "cfw", "bfw")
EQUILIBRIUM_GAP = 1e-3
EQUILIBRIUM_CAP = 2000


@dataclass
class EquilibriumInputs:
    network: object
    oracle: ShortestPathOracle


def sf_equilibrium_setup(seed: int) -> EquilibriumInputs:
    network = sioux_falls_network()
    return EquilibriumInputs(network=network, oracle=ShortestPathOracle.for_network(network))


def sf_equilibrium_job(inputs: EquilibriumInputs):
    return {
        method: solve_edge_flow_equilibrium(
            inputs.network, tolerance=EQUILIBRIUM_GAP, max_iterations=EQUILIBRIUM_CAP,
            oracle=inputs.oracle, method=method,
        )
        for method in EQUILIBRIUM_METHODS
    }


def sf_equilibrium_check(inputs: EquilibriumInputs, results) -> Checks:
    checks: Checks = []
    for method, result in results.items():
        flows = result.edge_flows
        finite = bool(np.all(np.isfinite(flows)))
        checks.append((f"{method} converged", bool(result.converged)))
        checks.append((f"{method} flows finite", finite))
        # Recomputed from the returned flows: lost or NaN mass moves the gap
        # away from [0, EQUILIBRIUM_GAP].
        gap = relative_duality_gap(inputs.network, inputs.oracle, flows) if finite else np.nan
        checks.append((f"{method} recomputed gap {gap:.2e}", bool(-1e-9 <= gap <= EQUILIBRIUM_GAP)))
    # TSTT - SPTT bounds a flow's Beckmann potential above the optimum
    # (convexity), so each method must land within its own certified gap of
    # the best potential any method found.
    best = min(result.potential_value for result in results.values())
    for method, result in results.items():
        excess = result.potential_value - best
        bound = result.tstt - result.sptt
        checks.append((f"{method} potential within its gap", bool(excess <= bound * (1 + 1e-9))))
    return checks


def sf_equilibrium_work(results) -> int:
    return int(sum(result.iterations for result in results.values()))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-sweep",
            "the paper's T/T* sweep on four small instances: per-step Python "
            "overhead, runner fusion, the per-row policy fallback and the agent engine",
            paper_sweep_setup, paper_sweep_job, paper_sweep_check, paper_sweep_work,
        ),
        Workload(
            "sf-incident",
            "16 stale incident rows on full Sioux Falls (690 paths, 528 OD pairs): "
            "the dense (B,P,P) field, migration tables and commodity projection",
            sf_incident_setup, sf_incident_job, sf_incident_check, incident_work,
            calibration=(("interpreter", 0.25), ("arrays", 0.75)),
        ),
        Workload(
            "city-cg",
            "8-row batched column generation on the 960-link city: shortest-path "
            "queries dominate, dynamics are cheap",
            city_cg_setup, city_cg_job, city_cg_check, city_cg_work,
        ),
        Workload(
            "sf-equilibrium",
            "edge-flow FW, CFW and BFW on Sioux Falls to gap 1e-3: the solver layer "
            "(line search, all-or-nothing loading) dominates",
            sf_equilibrium_setup, sf_equilibrium_job, sf_equilibrium_check,
            sf_equilibrium_work,
        ),
    )
}
