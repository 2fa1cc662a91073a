"""Analysis toolkit: convergence counting, oscillation detection, sweeps, tables."""

from .convergence import (
    ConvergenceSummary,
    count_bad_phases,
    final_distance_to,
    fluid_limit_deviation,
    potential_is_monotone,
    time_to_approximate_equilibrium,
    time_to_potential_gap,
)
from .metrics import (
    PhasePotentialStats,
    final_equilibrium_violation,
    final_potential_gap,
    phase_potential_stats,
    potential_decrease_rate,
    trajectory_summary_row,
)
from .network_report import NetworkReport, network_report
from .oscillation import OscillationReport, analyse_oscillation, phase_start_latency_trace
from .reporting import format_value, print_table, render_comparison, render_table
from .sweeps import (
    SweepCase,
    SweepResult,
    cartesian,
    convergence_row_builder,
)

__all__ = [
    "ConvergenceSummary",
    "NetworkReport",
    "OscillationReport",
    "PhasePotentialStats",
    "SweepCase",
    "SweepResult",
    "analyse_oscillation",
    "cartesian",
    "convergence_row_builder",
    "count_bad_phases",
    "final_distance_to",
    "final_equilibrium_violation",
    "final_potential_gap",
    "fluid_limit_deviation",
    "format_value",
    "network_report",
    "phase_potential_stats",
    "phase_start_latency_trace",
    "potential_decrease_rate",
    "potential_is_monotone",
    "print_table",
    "render_comparison",
    "render_table",
    "time_to_approximate_equilibrium",
    "time_to_potential_gap",
    "trajectory_summary_row",
]
