"""Parameter-sweep harness shared by the benchmarks and examples.

Every experiment in EXPERIMENTS.md is a sweep: run the same dynamics while
varying one or two parameters (update period, smoothness, number of links,
approximation target delta, population size ...) and collect one summary row
per setting.  The harness here removes the boilerplate so each benchmark
focuses on what it varies and what it measures.

Execution is :func:`repro.experiments.run_cases`: cases whose networks
share a topology (identical network objects, or same-topology networks with
different latency coefficients, which stack into a
:class:`~repro.wardrop.family.NetworkFamily`) run as one batched call, and a
case alone in its group runs as a one-row batch.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..core.policy import ReroutingPolicy
from ..core.trajectory import Trajectory
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.validation import (
    require_nonnegative_integer,
    require_positive,
    require_positive_integer,
)
from .convergence import ConvergenceSummary, check_slacks, count_bad_phases

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..batch.engine import StopPredicate
    from ..scenarios.scenario import Scenario

# A row builder may return one row or a list of rows (e.g. one per target
# delta evaluated on the same trajectory).
RowBuilder = Callable[[Trajectory], Union[Mapping[str, object], Sequence[Mapping[str, object]]]]


@dataclass
class SweepCase:
    """One parameter setting of a sweep.

    ``parameters`` are echoed into the result row; the remaining fields
    define the run.  ``method`` selects the model: ``"fluid"`` (the default)
    runs the fluid-limit engine, ``"agents"`` the finite-population agent
    simulator (``num_agents`` agents, seeded with ``seed``).
    ``steps_per_phase`` changes no result (sweeps record phase boundaries,
    and no step size reaches a phase).  ``stop_when`` is an optional batch
    predicate ``(times, flows, rows) -> mask`` (see
    :mod:`repro.batch.stopping`) evaluated at every phase boundary (fluid
    and agent methods); the case is always evaluated as batch row 0, so the
    stop phase never depends on the dispatch decision and equals that of
    ``simulate(..., stop_when=case.stop_when)``.
    A per-case condition must therefore be authored for the case's *own*
    network -- e.g. ``equilibrium_gap_stop(case.network, delta)`` or
    ``distance_stop(target_of_this_case[None, :], tol)`` -- never for a
    whole family indexed by batch row (family-wide conditions belong to a
    direct ``BatchSimulator.run(stop_when=...)`` call, which passes true row
    indices).

    ``column_generation`` runs the case through the large-network
    column-generation simulator instead (fluid methods only): the network's
    path set is re-seeded with free-flow shortest paths and grows at every
    phase start.  CG cases sharing the same network object fuse onto the
    batched CG driver
    (:func:`~repro.largescale.batch_columns.simulate_with_column_generation_batch`,
    one shared oracle; update periods, horizons and steps-per-phase vary per
    row as in fluid groups); note that fused *open-mode*
    rows grow a shared union path set, so run ``run_cases`` once per case
    when per-row discovery sets must stay independent (closed-mode fusions
    stay bit-identical per row).  A CG case cannot combine with
    ``method="agents"``, ``initial_flow`` or ``stop_when`` (the last two are
    authored for the case network's fixed path dimension; pass ``stop_when``
    to :func:`~repro.largescale.columns.simulate_with_column_generation`
    directly instead); such a case is rejected at construction.

    ``scenario`` makes the case's environment nonstationary (see
    :mod:`repro.scenarios`).  Scenarios ride along per row: same-topology
    cases with *different* scenarios still fuse into one batched run (the
    fluid and agent engines stack their per-phase effective networks).

    Settings are validated at construction, naming the field: periods and
    horizons must be finite and positive, ``steps_per_phase`` and
    ``num_agents`` whole numbers >= 1, ``seed`` a whole number >= 0, a fresh
    fluid case's policy alpha-smooth, and column generation must not meet
    the fields above.
    """

    parameters: Dict[str, object]
    network: WardropNetwork
    policy: ReroutingPolicy
    update_period: float
    horizon: float
    initial_flow: Optional[FlowVector] = None
    stale: bool = True
    steps_per_phase: int = 50
    method: str = "fluid"
    num_agents: Optional[int] = None
    seed: int = 0
    stop_when: Optional["StopPredicate"] = None
    column_generation: bool = False
    scenario: Optional["Scenario"] = None

    def __post_init__(self) -> None:
        require_positive("update_period", self.update_period)
        require_positive("horizon", self.horizon)
        require_positive_integer("steps_per_phase", self.steps_per_phase)
        if self.method not in ("fluid", "agents"):
            raise ValueError(f"method must be 'fluid' or 'agents', got {self.method!r}")
        if self.num_agents is not None:
            require_positive_integer("num_agents", self.num_agents)
        require_nonnegative_integer("seed", self.seed)
        if self.method == "fluid" and not self.stale and isinstance(self.policy, ReroutingPolicy):
            self.policy.check_fresh_fluid()
        if self.column_generation:
            for name, conflict in (
                ("method", self.method == "agents"),
                ("initial_flow", self.initial_flow is not None),
                ("stop_when", self.stop_when is not None),
            ):
                if conflict:
                    raise ValueError(
                        f"{name} does not combine with column_generation: the "
                        "fluid-only restricted path set is re-seeded and grows mid-run"
                    )


@dataclass
class SweepResult:
    """The collected rows of a sweep, one per case."""

    rows: List[Dict[str, object]] = field(default_factory=list)

    def append(self, row: Mapping[str, object]) -> None:
        self.rows.append(dict(row))

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def merge_metrics(self, metrics: Mapping[str, object], prefix: str = "tele_") -> None:
        """Merge a flat telemetry-metrics dict into every row.

        Used by the CLI's ``--metrics`` flag: the active session's
        ``metrics.flatten()`` output lands in each row under ``prefix``-ed
        column names, so the counters persist through :meth:`to_csv` /
        :meth:`to_jsonl` next to the sweep's own columns.  Existing columns
        are never overwritten.
        """
        for row in self.rows:
            for key, value in metrics.items():
                row.setdefault(prefix + key, value)

    def __len__(self) -> int:
        return len(self.rows)

    # Persistence ------------------------------------------------------------

    def fieldnames(self) -> List[str]:
        """Return the union of row keys in first-seen order."""
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def to_csv(self, path) -> None:
        """Write the rows as a CSV file with a header line."""
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.fieldnames())
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def to_jsonl(self, path) -> None:
        """Write the rows as JSON Lines (one JSON object per row)."""
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, default=str) + "\n")

    @classmethod
    def from_csv(cls, path) -> "SweepResult":
        """Load rows written by :meth:`to_csv`.

        CSV carries no type information, so every value comes back as a
        string (missing columns as ``""``); use :meth:`from_jsonl` when the
        original types matter.
        """
        with open(path, newline="") as handle:
            return cls(rows=[dict(row) for row in csv.DictReader(handle)])

    @classmethod
    def from_jsonl(cls, path) -> "SweepResult":
        """Load rows written by :meth:`to_jsonl` (JSON types preserved)."""
        # Imported here: the telemetry package imports the analysis package.
        from ..telemetry.jsonl import read_jsonl

        return cls(rows=read_jsonl(path))


def convergence_row_builder(delta: float, epsilon: float) -> RowBuilder:
    """Return a row builder reporting the Theorem 6/7 bad-phase counts."""
    check_slacks(delta, epsilon)

    def build(trajectory: Trajectory) -> Mapping[str, object]:
        summary: ConvergenceSummary = count_bad_phases(trajectory, delta, epsilon)
        return {
            "phases": summary.total_phases,
            "bad_phases": summary.bad_phases,
            "weak_bad_phases": summary.weak_bad_phases,
            "last_bad_phase": summary.last_bad_phase,
        }

    return build


def cartesian(**axes: Sequence[object]) -> List[Dict[str, object]]:
    """Return the cartesian product of named parameter axes as dicts.

    ``cartesian(T=[0.1, 0.2], beta=[1, 2])`` yields four dictionaries; the
    benches use this to spell out their grids declaratively.
    """
    names = list(axes)
    combos: List[Dict[str, object]] = [{}]
    for name in names:
        combos = [dict(combo, **{name: value}) for combo in combos for value in axes[name]]
    return combos
