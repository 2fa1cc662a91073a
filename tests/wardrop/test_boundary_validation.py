"""Non-finite inputs are rejected at the boundary, naming the bad field.

``x < 0`` and ``x <= 0`` are False for NaN, so sign-only guards let NaN
(and often inf) through to fail later, deep in an engine.  Every row here
builds one object with one bad field and expects a ``ValueError`` whose
message names that field.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.convergence import (
    count_bad_phases,
    time_to_approximate_equilibrium,
    time_to_potential_gap,
)
from repro.analysis.sweeps import SweepCase
from repro.batch.agents import BatchAgentConfig
from repro.batch.board import BatchBulletinBoard
from repro.batch.stopping import distance_stop, equilibrium_gap_stop
from repro.batch.engine import BatchConfig, simulate_batch
from repro.core import better_response_policy, uniform_policy
from repro.core.agents import simulate_agents
from repro.core.best_response import simulate_best_response, two_link_best_response_flow
from repro.core.bounds import (
    max_update_period_for_latency,
    oscillation_amplitude,
    oscillation_fixed_point,
    uniform_convergence_bound,
)
from repro.core.simulator import simulate
from repro.instances import braess_network, get_instance, oscillation_initial_flow, two_link_network
from repro.largescale.batch_columns import simulate_with_column_generation_batch
from repro.largescale.columns import ActivePathSet, simulate_with_column_generation
from repro.scenarios import (
    ConstantSchedule,
    LinkIncident,
    PeriodicSchedule,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    Scenario,
)
from repro.scenarios.tracking import interval_equilibria
from repro.solvers import solve_edge_flow_equilibrium, solve_wardrop_equilibrium
from repro.wardrop import Commodity, FlowVector, NetworkFamily
from repro.wardrop.latency import (
    AffineLatency,
    BPRLatency,
    ConstantLatency,
    LinearLatency,
    MM1Latency,
    ModulatedLatency,
    MonomialLatency,
    PiecewiseLinearLatency,
    PolynomialLatency,
    ScaledLatency,
    ThresholdLatency,
)
from repro.wardrop.validation import require_nonnegative_integer

NAN = float("nan")
INF = float("inf")
BASE = LinearLatency(1.0)
BRAESS = braess_network()
POLICY = uniform_policy(BRAESS)
EDGE = ("a", "b", 0)
PIGOU_QUADRATIC = get_instance("pigou-quadratic")


def run_simulate(**overrides):
    settings = {"update_period": 0.1, "horizon": 0.2, **overrides}
    return simulate(BRAESS, POLICY, **settings)


def run_cg(simulate_cg, **overrides):
    settings = {"update_period": 0.1, "horizon": 0.2, **overrides}
    if simulate_cg is simulate_with_column_generation_batch:
        settings["batch"] = 1
    return simulate_cg(ActivePathSet.from_network(BRAESS), POLICY, **settings)


def run_agents(**overrides):
    settings = {"num_agents": 10, "update_period": 0.1, "horizon": 0.2, **overrides}
    return simulate_agents(BRAESS, POLICY, **settings)


@lru_cache(maxsize=None)
def braess_run():
    return simulate(BRAESS, POLICY, update_period=0.5, horizon=5.0)


def run_best_response(**overrides):
    settings = {"update_period": 0.1, "horizon": 0.2, **overrides}
    return simulate_best_response(BRAESS, **settings)


def sweep_case(**overrides):
    settings = {"update_period": 0.1, "horizon": 1.0, **overrides}
    return SweepCase({}, BRAESS, POLICY, **settings)

ROWS = [
    # Latency constructors.
    ("ConstantLatency(nan)", lambda: ConstantLatency(NAN), "constant"),
    ("ConstantLatency(inf)", lambda: ConstantLatency(INF), "constant"),
    ("ConstantLatency(-1)", lambda: ConstantLatency(-1.0), "constant"),
    ("LinearLatency(nan)", lambda: LinearLatency(NAN), "coefficient"),
    ("AffineLatency(nan, 1)", lambda: AffineLatency(NAN, 1.0), "slope"),
    ("AffineLatency(1, inf)", lambda: AffineLatency(1.0, INF), "intercept"),
    ("PolynomialLatency([nan, 1])", lambda: PolynomialLatency([NAN, 1.0]), r"coefficients\[0\]"),
    ("PolynomialLatency([1, -2])", lambda: PolynomialLatency([1.0, -2.0]), r"coefficients\[1\]"),
    ("MonomialLatency(nan, 2)", lambda: MonomialLatency(NAN, 2), "coefficient"),
    ("MonomialLatency(1, 0)", lambda: MonomialLatency(1.0, 0), "degree"),
    ("MonomialLatency(1, 2.5)", lambda: MonomialLatency(1.0, degree=2.5), "degree"),
    ("BPRLatency(nan, 1)", lambda: BPRLatency(NAN, 1.0), "free_flow_time"),
    ("BPRLatency(1, nan)", lambda: BPRLatency(1.0, NAN), "capacity"),
    ("BPRLatency(1, inf)", lambda: BPRLatency(1.0, INF), "capacity"),
    ("BPRLatency(1, 0)", lambda: BPRLatency(1.0, 0.0), "capacity"),
    ("BPRLatency(alpha=nan)", lambda: BPRLatency(1.0, 1.0, alpha=NAN), "alpha"),
    ("BPRLatency(beta=0)", lambda: BPRLatency(1.0, 1.0, beta=0), "beta"),
    ("BPRLatency(beta=4.7)", lambda: BPRLatency(1.0, 1.0, 0.15, beta=4.7), "beta"),
    ("MM1Latency(nan)", lambda: MM1Latency(NAN), "capacity"),
    ("MM1Latency(inf)", lambda: MM1Latency(INF), "capacity"),
    (
        "PiecewiseLinearLatency(nan y)",
        lambda: PiecewiseLinearLatency([(0.0, 0.0), (1.0, NAN)]),
        "breakpoint",
    ),
    ("ThresholdLatency(nan)", lambda: ThresholdLatency(NAN), "beta"),
    ("ScaledLatency(nan)", lambda: ScaledLatency(BASE, NAN), "factor"),
    ("ModulatedLatency(gain=nan)", lambda: ModulatedLatency(BASE, gain=NAN), "gain"),
    ("ModulatedLatency(stretch=0)", lambda: ModulatedLatency(BASE, stretch=0.0), "stretch"),
    ("ModulatedLatency(offset=inf)", lambda: ModulatedLatency(BASE, offset=INF), "offset"),
    # Scenario inputs.
    ("LinkIncident(start=nan)", lambda: LinkIncident(EDGE, NAN, 1.0), "start"),
    ("LinkIncident(end=nan)", lambda: LinkIncident(EDGE, 0.0, NAN), "end"),
    (
        "LinkIncident(closure_penalty=nan)",
        lambda: LinkIncident(EDGE, 0.0, 1.0, capacity_factor=0.0, closure_penalty=NAN),
        "closure_penalty",
    ),
    ("ConstantSchedule(nan)", lambda: ConstantSchedule(NAN), "value"),
    ("ConstantSchedule(inf)", lambda: ConstantSchedule(INF), "value"),
    (
        "PiecewiseConstantSchedule(values=[nan])",
        lambda: PiecewiseConstantSchedule([], [NAN]),
        r"values\[0\]",
    ),
    (
        "PiecewiseConstantSchedule([nan], [1, 2])",
        lambda: PiecewiseConstantSchedule([NAN], [1.0, 2.0]),
        r"times\[0\]",
    ),
    (
        "PiecewiseConstantSchedule([1], [1, nan])",
        lambda: PiecewiseConstantSchedule([1.0], [1.0, NAN]),
        r"values\[1\]",
    ),
    (
        "PiecewiseLinearSchedule([0, 1], [1, nan])",
        lambda: PiecewiseLinearSchedule([0.0, 1.0], [1.0, NAN]),
        r"values\[1\]",
    ),
    (
        "PiecewiseLinearSchedule([0, 1], [1, inf])",
        lambda: PiecewiseLinearSchedule([0.0, 1.0], [1.0, INF]),
        r"values\[1\]",
    ),
    (
        "PiecewiseLinearSchedule([0, nan], [1, 1])",
        lambda: PiecewiseLinearSchedule([0.0, NAN], [1.0, 1.0]),
        r"times\[1\]",
    ),
    (
        "PeriodicSchedule(period=nan)",
        lambda: PeriodicSchedule(ConstantSchedule(1.0), NAN),
        "period",
    ),
    # Instance data.
    ("Commodity(demand=nan)", lambda: Commodity("a", "b", NAN), "demand"),
    ("Commodity(demand=inf)", lambda: Commodity("a", "b", INF), "demand"),
    ("Commodity(demand=0)", lambda: Commodity("a", "b", 0.0), "demand"),
    # Flow state.
    ("FlowVector([nan, ...])", lambda: FlowVector(BRAESS, [NAN, 0.5, 0.5]), "component 0"),
    ("FlowVector([..., inf])", lambda: FlowVector(BRAESS, [0.5, 0.5, INF]), "component 2"),
    # Engine configs.
    ("simulate(update_period=nan)", lambda: run_simulate(update_period=NAN), "update_period"),
    ("simulate(horizon=inf)", lambda: run_simulate(horizon=INF), "horizon"),
    ("simulate(update_period=[.1, .2])", lambda: run_simulate(update_period=[0.1, 0.2]), "update_period"),
    ("BatchConfig(update_periods=[.1, nan])", lambda: BatchConfig(update_periods=[0.1, NAN]), r"update_periods\[1\]"),
    ("BatchConfig(horizons=nan)", lambda: BatchConfig(horizons=NAN), "horizons"),
    ("BatchConfig(steps_per_phase=nan)", lambda: BatchConfig(steps_per_phase=NAN), "steps_per_phase"),
    ("BatchConfig(steps_per_phase=0.5)", lambda: BatchConfig(steps_per_phase=0.5), "steps_per_phase"),
    ("BatchConfig(steps_per_phase=2.5)", lambda: BatchConfig(steps_per_phase=2.5), "steps_per_phase"),
    (
        "BatchConfig(steps_per_phase=[2, 2.5])",
        lambda: BatchConfig(update_periods=[0.1, 0.1], steps_per_phase=[2, 2.5]),
        r"steps_per_phase\[1\]",
    ),
    ("BatchConfig(record_every=1.5)", lambda: BatchConfig(record_every=1.5), "record_every"),
    ("BatchConfig(record_every=nan)", lambda: BatchConfig(record_every=NAN), "record_every"),
    (
        "BatchBulletinBoard(update_periods=[nan])",
        lambda: BatchBulletinBoard(NetworkFamily.replicate(BRAESS, 1), np.array([NAN])),
        r"update_periods\[0\]",
    ),
    (
        "simulate_batch(better response, stale=False)",
        lambda: simulate_batch(BRAESS, better_response_policy(), [0.1], 0.2, stale=False),
        "policy better-response is not alpha-smooth",
    ),
    (
        "simulate_batch(steps_per_phase=2.5)",
        lambda: simulate_batch(BRAESS, POLICY, [0.1], 0.2, steps_per_phase=2.5),
        "steps_per_phase",
    ),
    (
        "simulate_batch(record_every=1.5)",
        lambda: simulate_batch(BRAESS, POLICY, [0.1], 0.2, record_every=1.5),
        "record_every",
    ),
    (
        "simulate_with_column_generation_batch(steps_per_phase=0.5)",
        lambda: run_cg(simulate_with_column_generation_batch, steps_per_phase=0.5),
        "steps_per_phase",
    ),
    # Sweep cases.
    ("SweepCase(update_period=nan)", lambda: sweep_case(update_period=NAN), "update_period"),
    ("SweepCase(horizon=-1)", lambda: sweep_case(horizon=-1.0), "horizon"),
    ("SweepCase(steps_per_phase=0)", lambda: sweep_case(steps_per_phase=0), "steps_per_phase"),
    ("SweepCase(steps_per_phase=2.5)", lambda: sweep_case(steps_per_phase=2.5), "steps_per_phase"),
    ("SweepCase(method=rk5)", lambda: sweep_case(method="rk5"), "method"),
    (
        "SweepCase(better response, stale=False)",
        lambda: SweepCase({}, BRAESS, better_response_policy(), 0.1, 1.0, stale=False),
        "policy better-response is not alpha-smooth",
    ),
    ("SweepCase(num_agents=0)", lambda: sweep_case(method="agents", num_agents=0), "num_agents"),
    ("SweepCase(seed=-1)", lambda: sweep_case(seed=-1), "^seed must be a non-negative integer"),
    ("SweepCase(seed=1.5)", lambda: sweep_case(seed=1.5), "^seed must be a non-negative integer"),
    ("SweepCase(seed=nan)", lambda: sweep_case(seed=NAN), "^seed must be a non-negative integer"),
    (
        "SweepCase(column_generation, method=agents)",
        lambda: sweep_case(column_generation=True, method="agents"),
        "method",
    ),
    (
        "SweepCase(column_generation, initial_flow)",
        lambda: sweep_case(column_generation=True, initial_flow=FlowVector.uniform(BRAESS)),
        "initial_flow",
    ),
    (
        "SweepCase(column_generation, stop_when)",
        lambda: sweep_case(
            column_generation=True, stop_when=distance_stop(np.zeros((1, 3)), 0.1)
        ),
        "stop_when",
    ),
    ("simulate_agents(update_period=nan)", lambda: run_agents(update_period=NAN), "update_period"),
    ("simulate_agents(horizon=nan)", lambda: run_agents(horizon=NAN), "horizon"),
    ("simulate_agents(num_agents=2.5)", lambda: run_agents(num_agents=2.5), "num_agents"),
    ("simulate_agents(seed=1.5)", lambda: run_agents(seed=1.5), "seed"),
    ("BatchAgentConfig(num_agents=2.5)", lambda: BatchAgentConfig(num_agents=2.5), "num_agents"),
    ("BatchAgentConfig(num_agents=nan)", lambda: BatchAgentConfig(num_agents=NAN), "num_agents"),
    ("BatchAgentConfig(num_agents=0.5)", lambda: BatchAgentConfig(num_agents=0.5), "num_agents"),
    (
        "BatchAgentConfig(num_agents=[10, 0])",
        lambda: BatchAgentConfig(num_agents=[10, 0]),
        r"num_agents\[1\]",
    ),
    ("BatchAgentConfig(seeds=1.5)", lambda: BatchAgentConfig(seeds=1.5), "seeds"),
    ("BatchAgentConfig(seeds=-1)", lambda: BatchAgentConfig(seeds=-1), "seeds"),
    (
        "BatchAgentConfig(seeds=[1, nan])",
        lambda: BatchAgentConfig(num_agents=[10, 10], seeds=[1.0, NAN]),
        r"seeds\[1\]",
    ),
    ("BatchAgentConfig(update_periods=nan)", lambda: BatchAgentConfig(update_periods=NAN), "update_periods"),
    (
        "BatchAgentConfig(horizons=[1, nan])",
        lambda: BatchAgentConfig(num_agents=[10, 10], horizons=[1.0, NAN]),
        r"horizons\[1\]",
    ),
    # Best response.
    ("simulate_best_response(T=nan)", lambda: run_best_response(update_period=NAN), "update_period"),
    ("simulate_best_response(T=inf)", lambda: run_best_response(update_period=INF), "update_period"),
    ("simulate_best_response(horizon=inf)", lambda: run_best_response(horizon=INF), "horizon"),
    (
        "simulate_best_response(samples_per_phase=0)",
        lambda: run_best_response(samples_per_phase=0),
        "samples_per_phase",
    ),
    (
        "simulate_best_response(samples_per_phase=2.5)",
        lambda: run_best_response(samples_per_phase=2.5),
        "samples_per_phase",
    ),
    (
        "simulate_best_response(foreign initial flow)",
        lambda: run_best_response(initial_flow=FlowVector.uniform(two_link_network())),
        "initial flow belongs to a different network",
    ),
    (
        "simulate_best_response(same-topology foreign initial flow)",
        lambda: simulate_best_response(
            get_instance("two-links-steep"), 0.1, 0.2,
            initial_flow=FlowVector.uniform(get_instance("pigou-quadratic")),
        ),
        "initial flow belongs to a different network",
    ),
    ("two_link_best_response_flow(T=nan)", lambda: two_link_best_response_flow(0.3, NAN, 1.0), "update_period"),
    ("two_link_best_response_flow(time=nan)", lambda: two_link_best_response_flow(0.3, 0.1, NAN), "time"),
    ("two_link_best_response_flow(time=inf)", lambda: two_link_best_response_flow(0.3, 0.1, INF), "time"),
    (
        "two_link_best_response_flow(share=nan)",
        lambda: two_link_best_response_flow(NAN, 0.1, 1.0),
        "initial_first_link",
    ),
    # Equilibrium tracking: a NaN horizon would give a one-interval track.
    (
        "interval_equilibria(horizon=nan)",
        lambda: interval_equilibria(BRAESS, Scenario(), horizon=NAN),
        "horizon",
    ),
    (
        "interval_equilibria(sample_every=nan)",
        lambda: interval_equilibria(BRAESS, Scenario(), horizon=1.0, sample_every=NAN),
        "sample_every",
    ),
    # Equilibrium solvers: a NaN or negative tolerance used to run every
    # sweep to the cap and return converged=False.
    (
        "solve_wardrop_equilibrium(tolerance=nan)",
        lambda: solve_wardrop_equilibrium(PIGOU_QUADRATIC, tolerance=NAN),
        "^tolerance",
    ),
    (
        "solve_wardrop_equilibrium(tolerance=-1)",
        lambda: solve_wardrop_equilibrium(PIGOU_QUADRATIC, tolerance=-1.0),
        "^tolerance",
    ),
    (
        "solve_wardrop_equilibrium(max_iterations=0)",
        lambda: solve_wardrop_equilibrium(PIGOU_QUADRATIC, max_iterations=0),
        "^max_iterations",
    ),
    (
        "solve_wardrop_equilibrium(max_iterations=2.5)",
        lambda: solve_wardrop_equilibrium(PIGOU_QUADRATIC, max_iterations=2.5),
        "^max_iterations",
    ),
    (
        "solve_edge_flow_equilibrium(tolerance=nan)",
        lambda: solve_edge_flow_equilibrium(PIGOU_QUADRATIC, tolerance=NAN),
        "^tolerance",
    ),
    (
        "solve_edge_flow_equilibrium(tolerance=-1)",
        lambda: solve_edge_flow_equilibrium(PIGOU_QUADRATIC, tolerance=-1.0),
        "^tolerance",
    ),
    (
        "solve_edge_flow_equilibrium(max_iterations=-3)",
        lambda: solve_edge_flow_equilibrium(PIGOU_QUADRATIC, max_iterations=-3),
        "^max_iterations",
    ),
    (
        "solve_edge_flow_equilibrium(max_iterations=nan)",
        lambda: solve_edge_flow_equilibrium(PIGOU_QUADRATIC, max_iterations=NAN),
        "^max_iterations",
    ),
    # Closed-form bounds and the oscillation instance.
    ("oscillation_fixed_point(nan)", lambda: oscillation_fixed_point(NAN), "update_period"),
    ("oscillation_amplitude(1, nan)", lambda: oscillation_amplitude(1.0, NAN), "update_period"),
    ("oscillation_amplitude(nan, 1)", lambda: oscillation_amplitude(NAN, 1.0), "beta"),
    ("max_update_period_for_latency(nan, 1)", lambda: max_update_period_for_latency(NAN, 1.0), "beta"),
    (
        "max_update_period_for_latency(1, nan)",
        lambda: max_update_period_for_latency(1.0, NAN),
        "epsilon",
    ),
    (
        "uniform_convergence_bound(T=nan)",
        lambda: uniform_convergence_bound(BRAESS, NAN, 0.1, 0.1),
        "update_period",
    ),
    (
        "uniform_convergence_bound(delta=nan)",
        lambda: uniform_convergence_bound(BRAESS, 0.1, NAN, 0.1),
        "delta",
    ),
    (
        "oscillation_initial_flow(T=nan)",
        lambda: oscillation_initial_flow(two_link_network(), NAN),
        "update_period",
    ),
    # Convergence measures and stopping conditions: a NaN slack compares
    # False and would count no bad phase, or never stop.
    ("count_bad_phases(delta=nan)", lambda: count_bad_phases(braess_run(), NAN, 0.1), "delta"),
    (
        "time_to_approximate_equilibrium(delta=nan)",
        lambda: time_to_approximate_equilibrium(braess_run(), NAN, 0.1),
        "delta",
    ),
    (
        "time_to_approximate_equilibrium(epsilon=nan)",
        lambda: time_to_approximate_equilibrium(braess_run(), 0.1, NAN),
        "epsilon",
    ),
    ("time_to_potential_gap(gap=nan)", lambda: time_to_potential_gap(braess_run(), 0.0, NAN), "gap"),
    ("distance_stop(tolerance=nan)", lambda: distance_stop(np.zeros((1, 3)), NAN), "tolerance"),
    ("distance_stop(tolerance=-1)", lambda: distance_stop(np.zeros((1, 3)), -1.0), "tolerance"),
    ("equilibrium_gap_stop(delta=nan)", lambda: equilibrium_gap_stop(BRAESS, NAN), "delta"),
    (
        "equilibrium_gap_stop(threshold=nan)",
        lambda: equilibrium_gap_stop(BRAESS, 0.1, threshold=NAN),
        "threshold",
    ),
]


@pytest.mark.parametrize("build, field", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_bad_input_is_rejected_naming_the_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_seed_check_names_the_first_bad_entry_of_an_array_only():
    for good in (0, 7.0, np.int64(3), [0, 2**62], np.array([1.0, 2.0])):
        require_nonnegative_integer("seed", good)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -2"):
        require_nonnegative_integer("seed", -2)
    with pytest.raises(ValueError, match=r"^seeds\[1\] must be a non-negative integer, got 0.5"):
        require_nonnegative_integer("seeds", [3, 0.5, -1])


def test_is_feasible_is_false_for_nan_flows():
    flow = FlowVector(BRAESS, [NAN, 0.5, 0.5], validate=False)
    assert not flow.is_feasible()


def test_valid_boundary_values_still_accepted():
    # A zero tolerance is legal: it asks for an exact gap.
    assert solve_wardrop_equilibrium(PIGOU_QUADRATIC, tolerance=0.0).converged
    assert solve_edge_flow_equilibrium(PIGOU_QUADRATIC, tolerance=0.0, max_iterations=3).iterations <= 3
    assert ConstantLatency(0.0).value(0.5) == 0.0
    assert BPRLatency(1.0, 0.5, alpha=0.0).value(1.0) == 1.0
    assert ModulatedLatency(BASE, gain=0.0, offset=1e3).value(0.5) == 1e3
    assert BatchConfig(update_periods=np.array([0.1, 0.2])).batch_size == 2
    # The bounds keep their documented limits for finite arguments.
    assert max_update_period_for_latency(0.0, 0.1) == INF
    assert max_update_period_for_latency(1.0, 0.0) == 0.0
    assert oscillation_amplitude(0.0, 1.0) == 0.0
    # An infinite period is a limit of the closed forms, not an error: for
    # beta < 2 eps no period makes the amplitude exceed eps.
    assert oscillation_fixed_point(INF) == 1.0
    assert oscillation_initial_flow(two_link_network(), INF).values().tolist() == [1.0, 0.0]
    for beta in (0.05, 0.1, 0.19):
        assert oscillation_amplitude(beta, max_update_period_for_latency(beta, 0.1)) == beta / 2
    assert uniform_convergence_bound(BRAESS, INF, 0.1, 0.1) == 0.0
    # Whole numbers stored as floats are still whole numbers.
    assert BatchConfig(steps_per_phase=4.0, record_every=2.0).record_every == 2
    assert sweep_case(steps_per_phase=np.int64(3), num_agents=10).steps_per_phase == 3
    config = BatchAgentConfig(num_agents=[10.0, 20.0], seeds=[0, 2**62])
    assert config.num_agents.tolist() == [10, 20]
    assert config.seeds.tolist() == [0, 2**62]
