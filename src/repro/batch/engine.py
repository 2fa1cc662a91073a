"""The batched fluid-limit simulation engine.

:class:`BatchSimulator` evolves ``B`` independent replicas of the rerouting
dynamics as one stacked ``(B, P)`` array: one vectorised product per phase
or integration step instead of one Python-level simulation per replica.  Rows
may differ in initial flow, bulletin-board update period, horizon,
recording grid and (via a list of policies) policy parameters,
so a whole parameter sweep becomes a single run.  The replicas route on
the members of a :class:`~repro.wardrop.family.NetworkFamily` -- networks
with identical topology but per-row latency coefficients -- which turns the
paper's coefficient sweeps (Pigou constants, Braess shortcut latencies,
two-link slopes) into one batched run as well.  A shared
:class:`~repro.wardrop.network.WardropNetwork` runs as the family of ``B``
references to it, whose one latency table prices every row.

Correctness contract
--------------------
This is the only fluid engine: :func:`~repro.core.simulator.simulate` runs
one replica as its one-row case.  Two suites pin it down.  *B-invariance*:
row ``r`` of a ``B``-row run equals the one-row run of the same
configuration (and, for families, the same member network) bit for bit --
every kernel is row-wise, so a row's arithmetic does not depend on which
other rows share the batch (``tests/batch``, ``tests/scenarios``).
*Reference*: a one-row run matches an independent solver written directly
from Eq. (1)/(3) (``tests/reference_dynamics.py``): stale phases through
``scipy.linalg.expm`` to 1e-12, fresh ones through ``scipy.integrate.solve_ivp``
(DOP853 at rtol 1e-12) to 1e-9.

Per-row policies are stacked once per engine (a
:class:`~repro.core.policy.PolicyStack`), and the tables and the field live
on the padded commodity blocks of :class:`~repro.wardrop.paths.CommodityBlocks`:
each stage is one batched ``(R, C, 1, K) @ (R, C, K, K)`` product between a
gather and a scatter of the ``(R, P)`` state; no table is ``(B, P, P)``.

A stale phase is not integrated: the posted board fixes its rates, so it
ends exactly at ``f(t_hat) expm(d Lambda)``, one product with the transition
blocks of :mod:`repro.core.dynamics`.  An up-to-date phase takes
error-controlled Dormand--Prince steps: each row carries its step size from
phase to phase, accepts or rejects its own steps and stops at its phase end
and its next sample, so its steps depend on its own state only.  Where two
latencies cross inside a step the field has a kink that the embedded error
estimate can miss, so a step's kink error is estimated from the crossed
pairs as well, and a row whose kink error is too large steps onto the
crossing instead.  ``steps_per_phase`` only places the ``record_every``
samples.

Because rows are independent, the engine advances all rows through *their
own* phase ``k`` simultaneously even when their update periods differ — the
rows' absolute clocks simply diverge, which is harmless.  Rows whose horizon
is exhausted — or whose ``stop_when`` condition has fired — are *frozen*:
each phase advances only the still-active sub-batch, so converged rows
skip all sampling, migration and latency work for the rest of the sweep.

:meth:`BatchEnsembleBase._phase_loop` is the only phase loop of the
package, shared by every engine.  One phase of the active rows runs in a
fixed order: freeze each row's environment at its phase start, run the
phase-start step (:meth:`BatchEnsembleBase._phase_start`, a no-op here;
column generation grows its path set in it), post every active row's board
(Eq. 3), advance, check finiteness and conservation (every commodity's
demand to a relative 1e-9, naming engine, row, phase and commodity on
failure), project, record, and evaluate ``stop_when``.  The fluid engine's
advance step solves or integrates the phase and records the ``record_every``
samples; column generation (:mod:`repro.largescale.batch_columns`) is this
engine plus its phase-start step, best response
(:func:`~repro.core.best_response.simulate_best_response`) is this engine
with the best-response rules, and the finite-population engine
(:mod:`repro.batch.agents`) supplies its own advance step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.dynamics import (
    batch_stepper_for,
    error_norms,
    rate_generator,
    step_factors,
    transition_blocks,
)
from ..core.policy import PolicyStack, ReroutingPolicy, frozen_field
from ..core.trajectory import Trajectory, planned_phase_counts
from ..scenarios.scenario import ScenarioEnsemble
from ..telemetry.runtime import get_telemetry
from ..wardrop.family import NetworkFamily
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from ..wardrop.validation import require_positive, require_positive_integer
from .board import BatchBulletinBoard

Policies = Union[ReroutingPolicy, Sequence[ReroutingPolicy]]
Networks = Union[WardropNetwork, NetworkFamily]

# The one stopping form of every engine and entry point: ``stop_when(times,
# flows, rows)`` receives the phase-end times ``(R,)``, the projected
# phase-end flows ``(R, P)`` and the batch row indices ``(R,)`` of the
# currently active rows, and returns a boolean mask of shape ``(R,)`` — True
# freezes the row after this phase.  One-row runs pass ``rows == [0]``.
StopPredicate = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# Every engine checks at every phase boundary that each active row routes
# every commodity's demand to this relative tolerance.
CONSERVATION_RTOL = 1e-9
# A phase of duration d has ceil(d * steps_per_phase / T) sub-steps on the
# recording grid; a ratio this close (relatively) to an integer is that
# integer, so the rounding of a phase boundary never adds a sub-step.
GRID_TOLERANCE = 1e-9
# The shortest step a fresh row may propose.  The model's rates are at most
# one per unit time, and even onto a kink of its field (two latencies
# crossing) a Lipschitz field takes steps near 1e-7 or longer; a row that
# needs shorter ones has a field that is not finite or not Lipschitz (a rule
# claiming a smoothness it lacks), and raises.
MIN_STEP = 1e-9


def _grow_buffer(buffer: np.ndarray, perm: np.ndarray, width: int) -> np.ndarray:
    """Widen the path axis of ``buffer`` to ``width`` after a path set grew.

    Old column ``j`` moves to ``perm[j]``; the new columns are zero.
    """
    grown = np.zeros(buffer.shape[:-1] + (width,))
    grown[..., perm] = buffer
    return grown


@dataclass
class BatchConfig:
    """Configuration of a batched run; per-row fields broadcast from scalars.

    Attributes
    ----------
    update_periods:
        Shape ``(B,)`` — each row's bulletin-board period ``T_r``.  This
        array fixes the batch size ``B``.
    horizons:
        Scalar or shape ``(B,)`` — total simulated time per row.
    steps_per_phase:
        Scalar or shape ``(B,)`` — sub-steps per phase of the grid on which
        ``record_every`` places samples.  It does not change the dynamics:
        stale phases are exact and fresh ones error-controlled.
    stale:
        If ``True`` (default) boards refresh only at phase boundaries
        (Eq. 3); if ``False`` the live state is used at every stage (Eq. 1).
    record_every:
        Optional stride (in grid sub-steps) for dense trajectory
        recording: every ``record_every``-th sub-step records an additional
        (projected) sample between the phase boundaries; ``1`` records every
        sub-step.  ``None`` (default) records phase boundaries only.

    Integer settings (``steps_per_phase``, ``record_every``) must be whole
    numbers >= 1; they are rejected, naming the field, rather than
    truncated.
    """

    update_periods: np.ndarray = field(default_factory=lambda: np.array([0.1]))
    horizons: Union[float, np.ndarray] = 50.0
    steps_per_phase: Union[int, np.ndarray] = 50
    stale: bool = True
    record_every: Optional[int] = None

    def __post_init__(self) -> None:
        self.update_periods = np.atleast_1d(np.asarray(self.update_periods, dtype=float))
        require_positive("update_periods", self.update_periods)
        require_positive("horizons", self.horizons)
        require_positive_integer("steps_per_phase", self.steps_per_phase)
        if self.record_every is not None:
            if np.ndim(self.record_every) != 0:
                raise ValueError("record_every must be a scalar sub-step stride")
            require_positive_integer("record_every", self.record_every)
            self.record_every = int(self.record_every)
        batch = len(self.update_periods)
        self.horizons = np.broadcast_to(
            np.asarray(self.horizons, dtype=float), (batch,)
        ).copy()
        self.steps_per_phase = np.broadcast_to(
            np.asarray(self.steps_per_phase, dtype=int), (batch,)
        ).copy()

    @property
    def batch_size(self) -> int:
        return len(self.update_periods)


@dataclass
class BatchResult:
    """The recorded phase-boundary states of a batched run.

    ``times[r, k]`` and ``flows[r, k]`` hold row ``r``'s ``k``-th recorded
    sample (``k = 0`` is the initial state, then one sample per completed
    phase, plus the intermediate samples of dense runs); only the first
    ``num_points[r]`` slots of row ``r`` are valid.  ``sample_phases[r, k]``
    is the phase sample ``k`` belongs to, ``boundary_mask[r, k]`` whether it
    is a phase boundary and ``phase_counts[r]`` the number of completed
    phases.  ``stop_phases[r]`` is the index of the phase whose end
    triggered row ``r``'s ``stop_when`` condition (−1 if it never fired).

    ``phase_start_flows[r, k]``, when set, is the state row ``r``'s phase
    ``k`` integrated from.  Only a phase-start step that moves flow (column
    generation evicting closed columns) makes it differ from the sample
    closing phase ``k - 1``; without it, phases start there.
    """

    network: WardropNetwork
    policy_names: List[str]
    update_periods: np.ndarray
    horizons: np.ndarray
    stale: bool
    times: np.ndarray
    flows: np.ndarray
    num_points: np.ndarray
    family: NetworkFamily
    sample_phases: np.ndarray
    boundary_mask: np.ndarray
    phase_counts: np.ndarray
    stop_phases: Optional[np.ndarray] = None
    phase_start_flows: Optional[np.ndarray] = None

    @property
    def batch_size(self) -> int:
        return len(self.update_periods)

    def __len__(self) -> int:
        return self.batch_size

    def row_network(self, row: int) -> WardropNetwork:
        """Return the network row ``row`` routed on (its family member)."""
        return self.family.member(row)

    def num_phases(self, row: int) -> int:
        """Return the number of completed bulletin-board phases of one row."""
        return int(self.phase_counts[row])

    def stopped_rows(self) -> np.ndarray:
        """Return the boolean mask of rows frozen by ``stop_when``."""
        if self.stop_phases is None:
            return np.zeros(self.batch_size, dtype=bool)
        return self.stop_phases >= 0

    def final_flows(self) -> np.ndarray:
        """Return the ``(B, P)`` array of final flows, one row per replica."""
        rows = np.arange(self.batch_size)
        return self.flows[rows, self.num_points - 1].copy()

    def final_flow(self, row: int) -> FlowVector:
        """Return one row's final flow as a :class:`FlowVector`."""
        return FlowVector(
            self.row_network(row),
            self.flows[row, self.num_points[row] - 1],
            validate=False,
        )

    def flow_matrix(self, row: int) -> np.ndarray:
        """Return one row's ``(samples, P)`` matrix of recorded flows."""
        return self.flows[row, : self.num_points[row]].copy()

    def trajectory(self, row: int) -> Trajectory:
        """Return one row as a :class:`Trajectory` of views into this result.

        The result equals the one-row run of that configuration (on the
        row's own family member for heterogeneous batches), so the whole
        analysis toolkit (convergence counting, oscillation detection, sweep
        row builders) applies unchanged.
        """
        count = int(self.num_points[row])
        times = self.times[row, :count]
        flows = self.flows[row, :count]
        boundaries = np.flatnonzero(self.boundary_mask[row, :count])
        starts, ends = boundaries[:-1], boundaries[1:]
        phase_starts = flows[starts]
        if self.phase_start_flows is not None:
            phase_starts = self.phase_start_flows[row, : len(starts)]
        return Trajectory(
            network=self.row_network(row),
            times=times,
            flows=flows,
            sample_phases=self.sample_phases[row, :count],
            phases=np.stack([times[starts], times[ends]], axis=1),
            phase_starts=phase_starts,
            phase_ends=flows[ends],
            policy_name=self.policy_names[row],
            update_period=float(self.update_periods[row]) if self.stale else 0.0,
        )

    def trajectories(self) -> List[Trajectory]:
        """Materialise every row (convenience for small batches)."""
        return [self.trajectory(row) for row in range(self.batch_size)]


class _Recording:
    """The samples of a run: row ``r``'s first ``num_points[r]`` slots are valid.

    Slot 0 holds the initial state; :meth:`sample` appends one sample to
    each given row.  ``phase_counts`` counts each row's completed phases.
    """

    def __init__(self, flows: np.ndarray, capacity: int):
        batch, paths = flows.shape
        self.times = np.zeros((batch, capacity))
        self.flows = np.zeros((batch, capacity, paths))
        self.flows[:, 0] = flows
        self.num_points = np.ones(batch, dtype=int)
        self.sample_phases = np.zeros((batch, capacity), dtype=int)
        self.boundary_mask = np.zeros((batch, capacity), dtype=bool)
        self.boundary_mask[:, 0] = True
        self.phase_counts = np.zeros(batch, dtype=int)

    def sample(
        self,
        rows: np.ndarray,
        times: np.ndarray,
        flows: np.ndarray,
        phase: int,
        boundary: bool = False,
    ) -> None:
        cursors = self.num_points[rows]
        self.times[rows, cursors] = times
        self.flows[rows, cursors] = flows
        self.sample_phases[rows, cursors] = phase
        self.boundary_mask[rows, cursors] = boundary
        self.num_points[rows] += 1


# An engine's phase step: ``advance(phase, rows, starts, durations, frozen,
# flows, recording)`` moves the active ``rows`` through ``phase`` (their
# phase starts and durations are ``(R,)``; ``frozen`` is what
# :meth:`BatchEnsembleBase._frozen_phase` built from the posted board, or
# ``None`` under up-to-date information; ``flows`` is the live ``(B, P)``
# state; dense runs append intermediate samples to the :class:`_Recording`)
# and returns their ``(R, P)`` phase-end state before :meth:`_project`.
PhaseStep = Callable[..., np.ndarray]


class BatchEnsembleBase:
    """The phase loop every batched engine runs, and its shared plumbing.

    Normalises the ``network`` argument (a
    :class:`~repro.wardrop.family.NetworkFamily` of the batch size, or a
    shared network, which becomes the family of ``B`` references to it), the
    ``policies`` argument (one policy for every row, or one per row; either
    way stacked once into a :class:`~repro.core.policy.PolicyStack`), the
    ``scenarios`` argument and the ``initial_flows`` argument, and provides
    family-aware live latency evaluation and the per-phase conservation
    check.

    :meth:`_phase_loop` is the one phase loop of the fluid
    :class:`BatchSimulator`, of column generation (a ``BatchSimulator``) and
    of the finite-population
    :class:`~repro.batch.agents.BatchAgentSimulator`: it owns the phase
    grid, the active mask, scenario freezing, the phase-start step, the
    board post (Eq. 3), the finiteness and conservation checks, recording,
    ``stop_when`` freezing and the run's telemetry.  An engine supplies what
    differs -- what a phase reads from the posted board
    (:meth:`_frozen_phase`), how its population moves through a phase (a
    :data:`PhaseStep`) and how the checked phase end is repaired
    (:meth:`_project`) -- so a fix to the loop applies to every engine at
    once.  ``config`` is the engine's configuration; the loop reads its
    ``update_periods``, ``horizons`` and ``stale``.
    """

    # Each engine names itself (``engine_name``, in errors and the run span)
    # and its telemetry counters (``<counter_prefix>.<name>``).
    engine_name: str
    counter_prefix: str

    def __init__(self, network: Networks, policies: Policies, config, scenarios=None):
        batch_size = config.batch_size
        if not isinstance(network, NetworkFamily):
            network = NetworkFamily.replicate(network, batch_size)
        if network.size != batch_size:
            raise ValueError(f"family of {network.size} networks for a batch of {batch_size}")
        self.family = network
        self.network = network.base
        self._batch_size = batch_size
        self.config = config
        # Scenario runs point this at the current phase's effective family;
        # live (fresh-information) latency evaluation then prices flows in
        # each row's current environment.
        self._phase_family: Optional[NetworkFamily] = None
        self._set_policies(policies)
        self._scenarios = self._normalise_scenarios(scenarios, batch_size)

    def _set_policies(self, policies: Policies) -> None:
        batch_size = self._batch_size
        if isinstance(policies, ReroutingPolicy):
            policies = [policies] * batch_size
        policies = list(policies)
        if len(policies) != batch_size:
            raise ValueError(f"got {len(policies)} policies for a batch of {batch_size}")
        self._policies: List[ReroutingPolicy] = policies
        self._stack = PolicyStack.of(policies)

    @staticmethod
    def _normalise_scenarios(scenarios, batch: int):
        if scenarios is None:
            return None
        from ..scenarios.scenario import Scenario

        if isinstance(scenarios, Scenario):
            scenarios = [scenarios] * batch
        scenarios = list(scenarios)
        if len(scenarios) != batch:
            raise ValueError(
                f"got {len(scenarios)} scenarios for a batch of {batch}"
            )
        if any(s is not None and not isinstance(s, Scenario) for s in scenarios):
            raise ValueError("scenarios must be Scenario instances or None")
        if all(s is None for s in scenarios):
            return None
        return scenarios

    # Initial states ---------------------------------------------------------

    def _is_row_network(self, candidate: WardropNetwork, row: int) -> bool:
        """True if ``candidate`` is a legal network for batch row ``row``."""
        return candidate is self.network or candidate is self.family.member(row)

    def _initial_flows(self, initial_flows) -> np.ndarray:
        batch = self._batch_size
        network = self.network
        if initial_flows is None:
            uniform = FlowVector.uniform(network).values()
            return np.tile(uniform, (batch, 1))
        if isinstance(initial_flows, FlowVector):
            if not self._is_row_network(initial_flows.network, 0):
                raise ValueError("initial flow belongs to a different network")
            return np.tile(initial_flows.values(), (batch, 1))
        if isinstance(initial_flows, np.ndarray):
            flows = np.asarray(initial_flows, dtype=float)
            if flows.shape != (batch, network.num_paths):
                raise ValueError(
                    f"initial flows have shape {flows.shape}, expected "
                    f"({batch}, {network.num_paths})"
                )
            return flows.copy()
        vectors = list(initial_flows)
        if len(vectors) != batch:
            raise ValueError(f"got {len(vectors)} initial flows for a batch of {batch}")
        for row, vector in enumerate(vectors):
            if not self._is_row_network(vector.network, row):
                raise ValueError("initial flow belongs to a different network")
        return FlowVector.stack(vectors)

    # Latency evaluation ------------------------------------------------------

    def _path_latencies_rows(self, state: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Live path latencies of the active sub-batch (scenario-aware)."""
        return (self._phase_family or self.family).path_latencies_batch(state, rows)

    # Conservation ------------------------------------------------------------

    def _check_conservation(
        self, flows: np.ndarray, rows: np.ndarray, phase: int, demands: np.ndarray
    ) -> None:
        """Raise unless every row of ``flows`` routes each commodity's demand.

        ``flows`` holds the phase-end ``(R, P)`` state of the active ``rows``
        and ``demands`` broadcasts to their ``(R, C)`` commodity demands;
        each commodity block total must match its demand to a relative
        :data:`CONSERVATION_RTOL`.  The error names the engine, row, phase and
        commodity, so lost mass fails at the phase that lost it.
        """
        totals = self.network.paths.blocks.gather(flows).sum(axis=-1)
        demands = np.broadcast_to(demands, totals.shape)
        kept = np.abs(totals - demands) <= CONSERVATION_RTOL * demands
        if not kept.all():
            row, commodity = np.argwhere(~kept)[0]
            raise ValueError(
                f"{self.engine_name}: row {int(rows[row])} routes "
                f"{float(totals[row, commodity])!r} on commodity {int(commodity)} at the "
                f"end of phase {phase}, demand is {float(demands[row, commodity])!r}"
            )

    # The phase loop ------------------------------------------------------------

    def _phase_start(
        self, phase: int, starts: np.ndarray, rows: np.ndarray, flows: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The step run at every phase start, before the board posts.

        Receives the phase index, every row's phase-start time, the active
        rows and the live ``(B, P)`` state, and returns the state to post and
        advance from together with ``None``, or -- when the path set grew
        -- the old-to-new column permutation, with :attr:`network`,
        :attr:`family` and the policies already moved to the grown network.
        The fluid and agent dynamics have nothing to do here; column
        generation grows and repairs its restricted path set
        (:mod:`repro.largescale.batch_columns`).
        """
        return flows, None

    def _frozen_phase(self, board: BatchBulletinBoard, rows: np.ndarray, durations: np.ndarray):
        """Build what a stale phase of ``rows`` reads from the board they just posted."""
        raise NotImplementedError

    def _project(self, flows: np.ndarray) -> np.ndarray:
        """Return the ``(R, P)`` phase-end state to record, once it has passed the checks."""
        return flows

    def _phase_loop(
        self,
        flows: np.ndarray,
        stop_when: Optional[StopPredicate],
        advance: PhaseStep,
        demands: np.ndarray,
        samples_per_phase: Optional[int] = None,
        **attributes,
    ) -> dict:
        """Run every row through its phases and return the recorded result fields.

        ``flows`` is the initial ``(B, P)`` state, ``advance`` the engine's
        :data:`PhaseStep` and ``demands`` the ``(B, C)`` per-commodity mass
        each row must keep at every phase end.  ``samples_per_phase`` sizes
        dense recording (``advance`` appends the intermediate samples);
        ``None`` records phase boundaries only.  ``attributes`` annotate the
        ``engine_run`` span.

        Row ``r`` runs phases ``0 .. planned_phase_counts(h_r, T_r) - 1``;
        phase ``k`` starts at ``k * T_r`` and ends at ``min((k + 1) T_r,
        h_r)``.  Rows advance through their own phase ``k`` together even
        when their periods differ.  A row whose horizon is exhausted or
        whose ``stop_when`` fired is frozen: it drops out of the active
        sub-batch and skips all further work.  One phase of the active rows
        freezes each row's environment at its phase start, runs
        :meth:`_phase_start`, posts every active row's board (Eq. 3; stale
        runs) and builds :meth:`_frozen_phase` from it, advances, checks
        finiteness and conservation, projects (:meth:`_project`), records
        the phase end and evaluates ``stop_when``.  The checks see the
        advance step's phase end before projection, so a kernel that loses
        mass fails even when clip-and-rescale would hide it.
        """
        config = self.config
        periods = config.update_periods
        horizons = config.horizons
        batch = self._batch_size
        tele = get_telemetry()
        run_span = tele.span(
            "engine_run",
            engine=self.engine_name,
            instance=self.network.graph.graph.get("name") or "-",
            **attributes,
        )
        prefix = self.counter_prefix
        phases_counter = tele.counter(f"{prefix}.phases_integrated")
        frozen_counter = tele.counter(f"{prefix}.rows_frozen_by_stop_when")
        refresh_counter = tele.counter(f"{prefix}.bulletin_refreshes")

        planned_phases = planned_phase_counts(horizons, periods)
        max_phases = int(planned_phases.max())
        recording = _Recording(flows, max_phases * (samples_per_phase or 1) + 1)
        stop_phases = np.full(batch, -1, dtype=int)

        ensemble = None
        if self._scenarios is not None:
            ensemble = ScenarioEnsemble(self.family, self._scenarios)

        board: Optional[BatchBulletinBoard] = None
        if config.stale:
            board = BatchBulletinBoard(self.family, periods)

        try:
            for phase in range(max_phases):
                active = (phase < planned_phases) & (stop_phases < 0)
                if not active.any():
                    break
                rows = np.flatnonzero(active)
                starts = phase * periods
                ends = np.minimum((phase + 1) * periods, horizons)
                durations = ends[rows] - starts[rows]

                if ensemble is not None:
                    # Freeze every row's environment at its own phase start; the
                    # stacked family feeds both board posts and live evaluation.
                    self._phase_family = ensemble.family_at(starts)

                with tele.span("phase", index=phase, active_rows=len(rows)):
                    flows, perm = self._phase_start(phase, starts, rows, flows)
                    if perm is not None:
                        # The path set grew: re-express the recorded samples on
                        # the grown network and rebuild what is sized by it.
                        width = self.network.num_paths
                        recording.flows = _grow_buffer(recording.flows, perm, width)
                        if ensemble is not None:
                            ensemble = ScenarioEnsemble(self.family, self._scenarios)
                            self._phase_family = ensemble.family_at(starts)
                        if board is not None:
                            board = BatchBulletinBoard(self.family, periods)
                    frozen = None
                    if config.stale:
                        # Eq. (3): every active row posts at the start of each of
                        # its phases.
                        if ensemble is not None:
                            board.set_networks(self._phase_family)
                        board.post_rows(starts, flows, mask=active)
                        tele.event("bulletin_refresh", rows=len(rows))
                        refresh_counter.add(len(rows))
                        with tele.span("field_eval", active_rows=len(rows)):
                            frozen = self._frozen_phase(board, rows, durations)

                    ended = advance(phase, rows, starts[rows], durations, frozen, flows, recording)
                    finite = np.isfinite(ended).all(axis=1)
                    if not finite.all():
                        row = int(rows[np.argmin(finite)])
                        raise ValueError(f"row {row} has non-finite flows at the end of phase {phase}")
                    self._check_conservation(ended, rows, phase, demands[rows])
                    ended = self._project(ended)
                    flows[rows] = ended
                    recording.sample(rows, ends[rows], ended, phase, boundary=True)
                    recording.phase_counts[rows] += 1
                    phases_counter.add(len(rows))

                    if stop_when is not None:
                        hit = np.asarray(stop_when(ends[rows], ended, rows), dtype=bool)
                        if hit.shape != rows.shape:
                            raise ValueError(
                                f"stop_when returned shape {hit.shape}, expected {rows.shape}"
                            )
                        stop_phases[rows[hit]] = phase
                        if hit.any():
                            tele.event("stop_when_fired", phase=phase, rows=int(hit.sum()))
                            frozen_counter.add(int(hit.sum()))
        finally:
            self._phase_family = None
            run_span.annotate(
                phases_integrated=int(recording.phase_counts.sum()),
                paths=self.network.num_paths,
            )
            run_span.close()
        tele.counter(f"{prefix}.runs").add()
        return dict(
            network=self.network,
            update_periods=periods.copy(),
            horizons=horizons.copy(),
            stale=config.stale,
            times=recording.times,
            flows=recording.flows,
            num_points=recording.num_points,
            stop_phases=stop_phases,
            family=self.family,
            sample_phases=recording.sample_phases,
            boundary_mask=recording.boundary_mask,
            phase_counts=recording.phase_counts,
        )


class BatchSimulator(BatchEnsembleBase):
    """Simulates ``B`` independent replicas of the rerouting dynamics at once.

    Parameters
    ----------
    network:
        A :class:`~repro.wardrop.family.NetworkFamily` whose size equals the
        batch size (row ``r`` routes on member ``r``, enabling heterogeneous
        latency coefficients within one integration), or a shared
        :class:`WardropNetwork`, which runs as the family of ``B``
        references to it.
    policies:
        Either one :class:`ReroutingPolicy` applied to every row or a
        sequence of ``B`` policies, one per row; rows whose rules share a
        class are evaluated together with their parameters stacked.
    config:
        The :class:`BatchConfig` with per-row periods/horizons/resolutions.
        A fresh run (``stale=False``) needs alpha-smooth policies
        (:meth:`~repro.core.policy.ReroutingPolicy.check_fresh_fluid`).
    scenarios:
        Optional nonstationary environments: one
        :class:`~repro.scenarios.scenario.Scenario` shared by every row, or a
        sequence of ``B`` scenarios (``None`` entries keep a row stationary).
        Rows may carry *different* scenarios -- e.g. a sweep over incident
        timings -- and still integrate as one ensemble: at every phase
        boundary the per-row effective networks are stacked through
        :class:`~repro.scenarios.scenario.ScenarioEnsemble` into a cached
        :class:`NetworkFamily` whose latency evaluation stays vectorised.
        Row ``r`` remains bit-identical to the one-row
        :func:`~repro.core.simulator.simulate` run with
        ``scenario=scenarios[r]``.
    """

    engine_name = "fluid-batch"
    counter_prefix = "batch"
    config: BatchConfig

    def __init__(self, network: Networks, policies: Policies, config: BatchConfig, scenarios=None):
        super().__init__(network, policies, config, scenarios)
        if not config.stale:
            for policy in self._policies:
                policy.check_fresh_fluid()

    def _frozen_phase(self, board: BatchBulletinBoard, rows: np.ndarray, durations: np.ndarray):
        """Return the ``(R, C, K, K)`` generator blocks of one stale phase of the active rows.

        Within a phase the sampling and migration blocks depend only on the
        posted snapshot, so they are assembled once per phase (for the active
        sub-batch only — frozen rows skip this work entirely) into the
        generator of the linear system ``df/dt = f Lambda``.
        """
        blocks = self.network.paths.blocks
        sigma, mu = self._stack.select(rows).tables(
            blocks, board.posted_flows[rows], board.posted_path_latencies[rows]
        )
        return rate_generator(sigma * mu)

    def _project(self, flows: np.ndarray) -> np.ndarray:
        """Clip-and-rescale the phase-end state (a guard: exact phases need no repair)."""
        return FlowVector.project_batch(self.network, flows)

    def run(
        self,
        initial_flows=None,
        stop_when: Optional[StopPredicate] = None,
    ) -> BatchResult:
        """Advance every replica to its horizon and return the batch result.

        ``initial_flows`` may be ``None`` (uniform split for every row), a
        single :class:`FlowVector` (shared start), a sequence of ``B`` flow
        vectors or a raw ``(B, P)`` array.

        ``stop_when(times, flows, rows)`` is the vectorised per-row stopping
        condition (see :data:`StopPredicate`), evaluated at every
        phase boundary on the projected flows.  Rows whose condition fires
        are frozen: the stopping phase is still recorded and the row then
        drops out of the active sub-batch, skipping all further sampling,
        migration and latency work; its stop phase is recorded in
        ``stop_phases``.
        """
        config = self.config
        flows = self._initial_flows(initial_flows)
        stepper = batch_stepper_for("dopri5")
        record_every = config.record_every
        max_steps = config.update_periods / config.steps_per_phase
        # Each row's next trial step of a fresh phase: its period at first,
        # then what the error control proposed at the end of its last phase.
        trial_steps = config.update_periods.copy()
        tele = get_telemetry()

        def advance(phase, rows, row_starts, durations, generator, flows, recording):
            """Move the active rows through one phase; return their raw end state."""
            network = self.network
            blocks = network.paths.blocks
            # The recording grid: equal sub-steps no longer than T / steps_per_phase,
            # the last one landing on the phase end (see GRID_TOLERANCE).
            ratios = durations / max_steps[rows]
            nearest = np.rint(ratios)
            ratios = np.where(np.abs(ratios - nearest) <= GRID_TOLERANCE * nearest, nearest, ratios)
            num_steps = np.maximum(1, np.ceil(ratios)).astype(int)
            step_sizes = durations / num_steps
            state = flows[rows]

            def sample(selected, offsets, states):
                """Record the projected ``states`` of rows ``selected`` at phase ``offsets``."""
                projected = FlowVector.project_batch(network, states)
                recording.sample(rows[selected], row_starts[selected] + offsets, projected, phase)

            if generator is not None:
                # A stale phase is exact: f(t_hat) expm(d Lambda) per commodity
                # block.  Dense samples are side outputs f(t_hat) expm(k h Lambda)
                # on the sub-step grid; the phase end never depends on them.
                start = blocks.gather(state)[..., None, :]
                with tele.span("integrate", steps=1, state_bytes=state.nbytes):
                    if record_every is not None:
                        step = transition_blocks(generator, step_sizes)
                        inside = start
                        for k in range(1, int(num_steps.max())):
                            inside = inside @ step
                            if k % record_every == 0:
                                selected = np.flatnonzero(k < num_steps)
                                ends = blocks.scatter(inside[selected, ..., 0, :])
                                sample(selected, k * step_sizes[selected], ends)
                    end = start @ transition_blocks(generator, durations)
                return blocks.scatter(end[..., 0, :])

            def live_field(live_rows):
                """Eq. (1) on ``live_rows`` (tables of the live state, in each row's
                environment), and the ``(sigma, mu)`` tables of its last evaluation."""
                stack = self._stack.select(live_rows)
                tables = []

                def field(state):
                    latencies = self._path_latencies_rows(state, live_rows)
                    tables[:] = stack.tables(blocks, state, latencies)
                    return frozen_field(blocks, *tables)(state)

                return field, tables

            # A fresh phase: error-controlled steps on per-row clocks ``elapsed``,
            # each stopping at the row's next sample (grid sub-step ``marks``) and
            # at its phase end.  Rows that reach the end leave the sub-batch
            # ``live``, and only then is the field rebuilt.
            demands = network.path_demands
            marks = num_steps.copy() if record_every is None else np.full(len(rows), record_every)
            live, elapsed, trial = np.arange(len(rows)), np.zeros(len(rows)), trial_steps[rows]
            with tele.span("integrate", state_bytes=state.nbytes):
                field, tables = live_field(rows)
                current, slope = state, field(state)
                start_mu = tables[1]
                while len(live):
                    inside = marks[live] < num_steps[live]
                    targets = np.where(inside, marks[live] * step_sizes[live], durations[live])
                    landed = trial >= targets - elapsed
                    step = np.where(landed, targets - elapsed, trial)
                    stuck = np.flatnonzero(~landed & (step < MIN_STEP))
                    if len(stuck):
                        raise ValueError(
                            f"row {int(rows[live[stuck[0]]])} needs steps below {MIN_STEP:g} in "
                            f"phase {phase}: its up-to-date field is not finite or not Lipschitz"
                        )
                    proposal, ahead, norms = stepper(field, current, slope, step[:, None], demands)
                    grown = step * step_factors(norms)
                    sigma, mu = tables
                    # A kink: P -> Q migrates at the step's end and Q -> P did at its
                    # start, so the two latencies crossed inside the step.  The embedded
                    # estimate can miss it; the step's error is about the step times the
                    # field of the crossed pairs at its end.  A row whose kink error is
                    # too large retries up to the secant root of the first crossing and
                    # past it by the overshoot whose kink error is half the tolerance.
                    before = np.swapaxes(start_mu, -1, -2)
                    crossed = (mu > 0) & (start_mu == 0) & (before > 0)
                    if crossed.any():
                        kink = frozen_field(blocks, sigma, np.where(crossed, mu, 0.0))(proposal)
                        kinks = error_norms(step[:, None] * kink, current, proposal, demands)
                        share = np.divide(before, before + mu, out=np.ones_like(mu), where=crossed)
                        root = step * share.min(axis=(1, 2, 3))
                        spare = (step - root) * step / (2.0 * np.maximum(kinks, 1.0))
                        retry = (root + np.sqrt(root**2 + 4.0 * spare)) / 2.0
                        grown = np.where(kinks > 1.0, np.minimum(grown, retry), grown)
                        norms = np.maximum(norms, kinks)
                    accepted = norms <= 1.0
                    reached = accepted & landed
                    # A step clamped to a target says little about the step the
                    # row can take, so the longer proposal survives it.
                    trial = np.where(reached, np.maximum(trial, grown), grown)
                    current = np.where(accepted[:, None], proposal, current)
                    slope = np.where(accepted[:, None], ahead, slope)
                    start_mu = np.where(accepted[:, None, None, None], mu, start_mu)
                    elapsed = np.where(reached, targets, elapsed + np.where(accepted, step, 0.0))
                    sampled = reached & inside
                    if sampled.any():
                        sample(live[sampled], targets[sampled], current[sampled])
                        marks[live[sampled]] += record_every
                    done = reached & ~inside
                    if done.any():
                        state[live[done]] = current[done]
                        trial_steps[rows[live[done]]] = trial[done]
                        live, elapsed, trial, current, slope, start_mu = (
                            kept[~done] for kept in (live, elapsed, trial, current, slope, start_mu)
                        )
                        if len(live):
                            field, tables = live_field(rows[live])
            return state

        samples_per_phase = None
        if record_every is not None:
            # At most s sub-steps: floor((s - 1) / stride) intermediates + 1 boundary.
            samples_per_phase = int(np.max(config.steps_per_phase)) // record_every + 1
        network = self.network
        fields = self._phase_loop(
            flows,
            stop_when,
            advance,
            np.broadcast_to(network.commodity_demands, (len(flows), network.num_commodities)),
            samples_per_phase,
            stale=config.stale,
            rows=config.batch_size,
            paths=network.num_paths,
            state_bytes=flows.nbytes,
        )
        return BatchResult(policy_names=[policy.label() for policy in self._policies], **fields)


def simulate_batch(
    network: Networks,
    policies: Policies,
    update_periods,
    horizons,
    initial_flows=None,
    stale: bool = True,
    steps_per_phase=50,
    stop_when: Optional[StopPredicate] = None,
    record_every: Optional[int] = None,
    scenarios=None,
) -> BatchResult:
    """Build a :class:`BatchConfig` from per-row settings and run it once.

    The argument names follow :func:`repro.core.simulator.simulate`, pluralised
    where a setting may vary per row.
    """
    config = BatchConfig(
        update_periods=np.asarray(update_periods, dtype=float),
        horizons=horizons,
        steps_per_phase=steps_per_phase,
        stale=stale,
        record_every=record_every,
    )
    return BatchSimulator(network, policies, config, scenarios=scenarios).run(
        initial_flows, stop_when=stop_when
    )
