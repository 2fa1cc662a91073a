"""Traffic engineering: tuning the measurement interval of a load-adaptive WAN.

The practical question behind the paper: a network operator runs adaptive,
latency-driven traffic splitting, but link-load telemetry is only refreshed
every ``T`` seconds.  How aggressive may the rerouting be before the system
starts to flap, and what does the theory's ``T* = 1/(4 D alpha beta)`` safety
margin buy in practice?

The example models a small WAN as a multi-commodity grid with affine
latencies, simulates three operating points (conservative, at the bound,
far beyond the bound) for both the fluid limit and a finite population of
flows, and reports the resulting stability and latency figures.

Run with::

    python examples/traffic_engineering.py
"""

from __future__ import annotations

from repro.analysis import analyse_oscillation, print_table
from repro.core import scaled_policy, simulate, simulate_agents
from repro.core.smoothness import max_safe_alpha
from repro.instances import grid_network
from repro.wardrop import FlowVector


def run_operating_point(network, update_period, aggressiveness):
    """Simulate one (T, alpha) operating point; alpha = aggressiveness * safe.

    Slow (small-alpha) operating points get a proportionally longer horizon so
    every point is judged after it has had time to settle.
    """
    alpha = aggressiveness * max_safe_alpha(network, update_period)
    horizon = max(60.0, 1.5 / alpha)
    policy = scaled_policy(alpha)
    start = FlowVector.uniform(network)
    trajectory = simulate(
        network, policy, update_period=update_period, horizon=horizon,
        initial_flow=start,
    )
    # "Unstable" means the allocation keeps moving by more than 1% of the total
    # demand from phase to phase at the end of the run.
    report = analyse_oscillation(trajectory, window=15, amplitude_threshold=0.01)
    return {
        "alpha/alpha_safe": aggressiveness,
        "alpha": alpha,
        "avg latency": trajectory.final_flow.average_latency(),
        "max used latency": trajectory.final_flow.max_used_latency(),
        "flap amplitude": report.amplitude,
        "stable": not report.is_oscillating,
    }


def main() -> None:
    # A 3x3 grid WAN with two overlapping commodities, fairly steep (congested)
    # links and telemetry refreshed only once per second.
    network = grid_network(
        3, 3, num_commodities=2, seed=3, slope_range=(2.0, 6.0), intercept_range=(0.0, 0.3)
    )
    update_period = 1.0
    print(network.describe())
    print(f"\nTelemetry refresh interval T = {update_period}")
    print(f"Safe migration aggressiveness alpha_safe = {max_safe_alpha(network, update_period):.4g}\n")

    rows = [
        run_operating_point(network, update_period, aggressiveness)
        for aggressiveness in [1.0, 20.0, 100.0]
    ]
    print_table(rows, title="Fluid-limit behaviour at three operating points")

    # Finite population sanity check at the safe operating point: 2000 flows.
    alpha = max_safe_alpha(network, update_period)
    finite = simulate_agents(
        network, scaled_policy(alpha), num_agents=2000,
        update_period=update_period, horizon=20.0, seed=1,
    )
    print(
        "Finite population (2000 flows) at the safe operating point: "
        f"average latency {finite.final_flow.average_latency():.4g}, "
        f"max used latency {finite.final_flow.max_used_latency():.4g}"
    )
    print(
        "\nTakeaway: at the Lemma 4 bound the split is provably stable (it just\n"
        "converges slowly); moderately exceeding the bound may still work on a\n"
        "benign instance, but pushing the migration gain two orders of magnitude\n"
        "past it makes the allocation flap even though each individual agent is\n"
        "still acting 'reasonably'.  The bound is the operating point an operator\n"
        "can justify without knowing how adversarial the topology is."
    )


if __name__ == "__main__":
    main()
