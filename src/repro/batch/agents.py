"""The finite-population agent engine.

:class:`BatchAgentSimulator` runs ``B`` independent finite-``n`` replicas of
the discrete-event agent model (:mod:`repro.core.agents`) as one vectorised
ensemble.  Replicas may differ in population size, update period, horizon,
seed and scenario, and may route on one shared network or on the members of
a :class:`~repro.wardrop.family.NetworkFamily`, so a whole ``n``-sweep --
the paper's finite-``n`` versus fluid-limit comparison, benchmark E9 --
becomes a single batched call.  It is the only agent engine:
:func:`~repro.core.agents.simulate_agents` runs one replica as its one-row
case.

Correctness contract
--------------------
Two suites pin the engine down.  *B-invariance*: row ``r`` of a ``B``-row
run equals the one-row run of the same configuration bit for bit
(assignments, trajectory, stop phase).  Every row owns its own ``numpy``
generator seeded with its own seed and issues the draws of the seeding
contract (:mod:`repro.core.agents`) whatever the other rows do, and every
kernel is row-wise (``tests/batch/test_agent_equivalence.py``,
``tests/batch/test_agent_stopping.py``).  *Reference*: a one-row
up-to-date-information run matches an event-by-event simulator written
directly from the model (``tests/reference_agents.py``) in its assignments
exactly; a stale run matches the model in distribution, checked by a
chi-square test against ``scipy.linalg.expm``
(``tests/core/test_reference_agents.py``).

Under stale information every agent reads the same frozen board, so within
a phase of length ``d`` each agent moves on its own, as a continuous-time
Markov chain whose generator ``Lambda`` (rate-1 clocks times the sampling
and migration blocks) the board fixes.  A stale row's state is therefore
its path counts, and a phase moves the ``n_P`` agents of path ``P`` by one
multinomial over row ``P`` of ``expm(d * Lambda)`` (the stale-phase kernel
of :mod:`repro.core.dynamics`, which the fluid engine applies to the flow):
no per-agent array exists and a phase costs O(paths) at any ``n``.  Under
up-to-date information each row is advanced in windows of its next
:data:`FRESH_WINDOW` activations decided against its cached live tables;
only the first migrating activation of the window is applied (every earlier
one is a no-op, so it saw exactly the live state an event-by-event run
would), the row's cursor moves past it and its tables are refreshed.  The
outcome equals the event-by-event order by construction.

Both kernels read the tables on commodity blocks
(:class:`~repro.wardrop.paths.CommodityBlocks`): an agent in slot ``j`` of
commodity ``c`` samples slot ``k`` from its sampling block row and moves
when its coin clears ``mu[r, c, j, k]``.

The phases run on the fluid engine's phase loop
(:meth:`~repro.batch.engine.BatchEnsembleBase._phase_loop`): phase grid,
scenario freezing, the board post at every phase start (Eq. 3), the
finiteness and conservation checks (each row's per-commodity totals to a
relative 1e-9), recording and ``stop_when`` freezing are the fluid engine's
own.  This engine supplies the population built from the initial flows, the
stale phase's transition blocks and its advance step, and the result is a
:class:`~repro.batch.engine.BatchResult` (:class:`BatchAgentResult`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.agents import DEFAULT_NUM_AGENTS, build_population, population_counts
from ..core.dynamics import rate_generator, transition_blocks
from ..telemetry.runtime import get_telemetry
from ..wardrop.paths import CommodityBlocks
from ..wardrop.validation import (
    require_nonnegative_integer,
    require_positive,
    require_positive_integer,
)
from .board import BatchBulletinBoard
from .engine import BatchEnsembleBase, BatchResult, BatchStoppingCondition, Networks, Policies

# Up-to-date information: activations decided per row per round against the
# row's cached live tables (see :meth:`BatchAgentSimulator._apply_fresh_phase`).
FRESH_WINDOW = 32


@dataclass
class BatchAgentConfig:
    """Configuration of a batched agent run; per-row fields broadcast from scalars.

    Attributes
    ----------
    num_agents:
        Scalar or shape ``(B,)`` -- each row's population size ``n_r``.
    update_periods:
        Scalar or shape ``(B,)`` -- bulletin-board period ``T_r`` per row.
    horizons:
        Scalar or shape ``(B,)`` -- total simulated time per row.
    seeds:
        Scalar or shape ``(B,)`` -- the per-row generator seeds (row ``r``
        reproduces the one-row run with seed ``seeds[r]``).
    stale:
        Shared information model: ``True`` for bulletin-board snapshots,
        ``False`` for live information at every activation.

    The batch size ``B`` is the broadcast length of the four per-row fields,
    so e.g. ``num_agents=10_000, seeds=range(32)`` runs 32 equally sized
    replicas with distinct seeds.  Population sizes must be whole numbers
    >= 1 and seeds whole numbers >= 0; both are rejected, naming the field,
    rather than truncated.
    """

    num_agents: Union[int, np.ndarray] = DEFAULT_NUM_AGENTS
    update_periods: Union[float, np.ndarray] = 0.1
    horizons: Union[float, np.ndarray] = 50.0
    seeds: Union[int, np.ndarray] = 0
    stale: bool = True

    def __post_init__(self) -> None:
        require_positive_integer("num_agents", self.num_agents)
        require_positive("update_periods", self.update_periods)
        require_positive("horizons", self.horizons)
        require_nonnegative_integer("seeds", self.seeds)
        seeds = np.asarray(self.seeds)
        num_agents = np.atleast_1d(np.asarray(self.num_agents, dtype=np.int64))
        shape = np.broadcast_shapes(
            num_agents.shape,
            np.shape(self.update_periods),
            np.shape(self.horizons),
            seeds.shape,
        )
        self.num_agents = np.broadcast_to(num_agents, shape).copy()
        self.update_periods = np.broadcast_to(
            np.asarray(self.update_periods, dtype=float), shape
        ).copy()
        self.horizons = np.broadcast_to(np.asarray(self.horizons, dtype=float), shape).copy()
        self.seeds = np.broadcast_to(seeds.astype(np.int64), shape).copy()

    @property
    def batch_size(self) -> int:
        return len(self.num_agents)


class _CountAssignments(Sequence):
    """Per-row agent assignments spelled out from ``(B, P)`` path counts on access."""

    def __init__(self, counts: np.ndarray):
        self._counts = counts

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[index] for index in range(len(self))[row]]
        return np.repeat(np.arange(self._counts.shape[1]), self._counts[row])


@dataclass(kw_only=True)
class BatchAgentResult(BatchResult):
    """The recorded phase-boundary states of a batched agent run.

    A :class:`~repro.batch.engine.BatchResult` whose ``flows`` are the
    realised flows (``k = 0`` is the initial population, then one sample per
    phase), plus each row's population size and seed.
    ``final_counts[r, p]`` is the number of row ``r``'s agents on path ``p``
    at the end, and ``agent_paths`` the per-agent assignment of
    up-to-date-information runs (``None`` for stale runs, which keep only
    counts).
    """

    num_agents: np.ndarray
    seeds: np.ndarray
    final_counts: np.ndarray
    agent_paths: Optional[List[np.ndarray]] = None

    @property
    def assignments(self) -> Sequence[np.ndarray]:
        """Each row's final agent-to-path assignment, indexed by row.

        Agents of a commodity are exchangeable, so a stale row's assignment
        is materialised from its final counts when indexed, agents in
        commodity-major path order.  A slice gives a list of rows for both
        kinds of run.
        """
        if self.agent_paths is not None:
            return self.agent_paths
        return _CountAssignments(self.final_counts)


def _sampling_cdf(sigma: np.ndarray, blocks: CommodityBlocks, rows: int):
    """Turn the sampling blocks of ``rows`` rows into within-commodity cdf blocks.

    ``sigma`` broadcasts to ``(rows, C, 1 or K, K)``.  Returns ``(cdf, valid)``:
    ``cdf[r, c, j, k]`` is the normalised cumulative probability that an
    agent in slot ``j`` of commodity ``c`` samples one of its first ``k + 1``
    slots, and ``valid[r, c, j]`` flags block rows with positive total mass.
    The sampled slot of an activation with uniform ``u`` is
    ``(cdf[r, c, j] <= u).sum()``: padded and final slots are exactly 1.0 and
    ``u < 1``, so it always lands on a real slot.
    """
    cdf = np.cumsum(sigma * blocks.valid[:, None, :], axis=-1)
    cdf = np.broadcast_to(cdf, (rows,) + cdf.shape[1:]).copy()
    totals = cdf[..., -1].copy()
    valid = totals > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf /= totals[..., None]
    return cdf, valid


def _stale_generator(sigma: np.ndarray, mu: np.ndarray, blocks: CommodityBlocks) -> np.ndarray:
    """Return the ``(R, C, K, K)`` generator blocks of one frozen phase.

    An agent in slot ``j`` of commodity ``c`` is activated at rate 1, samples
    slot ``k`` with its normalised sampling weight (block row 0 of ``sigma``
    when the rule ignores the current path) and moves when its coin in
    ``[0, 1)`` clears ``mu[r, c, j, k]``.  So it jumps to ``k != j`` at rate
    ``sigma_hat[j, k] * clip(mu[j, k], 0, 1)`` -- zero for a block row of
    zero sampling mass -- and the diagonal is minus the row's exit rate.
    """
    mass = sigma * blocks.valid[:, None, :]
    totals = mass.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        sampled = np.where(totals > 0, mass / totals, 0.0)
    return rate_generator(sampled * np.clip(mu, 0.0, 1.0) * blocks.pairs)


class BatchAgentSimulator(BatchEnsembleBase):
    """Runs ``B`` finite-population replicas as one vectorised ensemble.

    Parameters
    ----------
    network:
        The shared :class:`WardropNetwork`, or a
        :class:`~repro.wardrop.family.NetworkFamily` whose size equals the
        batch size (row ``r`` routes on member ``r``).
    policies:
        One :class:`ReroutingPolicy` for every row or a sequence of ``B``
        policies; rows whose rules share a class are evaluated together with
        their parameters stacked.
    config:
        The :class:`BatchAgentConfig` with per-row populations, periods,
        horizons and seeds.
    scenarios:
        Optional nonstationary environments, as for
        :class:`~repro.batch.engine.BatchSimulator`: one
        :class:`~repro.scenarios.scenario.Scenario` shared by every row or a
        sequence of ``B`` scenarios (``None`` keeps a row stationary).  Each
        row's environment is sampled at its phase start and frozen for the
        phase: the board posts the current environment's latencies, and in
        fresh mode every activation prices the live flow in it.  The
        randomness schedule is untouched, so a stationary scenario
        reproduces the scenario-free run bit for bit.
    """

    engine_name = "agents-batch"
    counter_prefix = "agents_batch"
    config: BatchAgentConfig

    def _frozen_phase(self, board: BatchBulletinBoard, rows: np.ndarray, durations: np.ndarray):
        """Return the ``(R, C, K, K)`` blocks of ``expm(d_r * Lambda_r)`` of one stale phase."""
        blocks = self.network.paths.blocks
        sigma, mu = self._stack.select(rows).tables(
            blocks, board.posted_flows[rows], board.posted_path_latencies[rows]
        )
        return transition_blocks(_stale_generator(sigma, mu, blocks), durations)

    def run(
        self,
        initial_flows=None,
        stop_when: Optional[BatchStoppingCondition] = None,
    ) -> BatchAgentResult:
        """Simulate every replica to its horizon and return the batch result.

        ``initial_flows`` may be ``None`` (uniform split for every row), a
        single :class:`FlowVector` (shared start), a sequence of ``B`` flow
        vectors or a raw ``(B, P)`` array; each row's agent population is
        built from its target flow with largest-remainder rounding.

        ``stop_when(times, flows, rows)`` is the vectorised per-row stopping
        mask, evaluated at every phase boundary on the realised flows --
        the fluid engine's freezing semantics: a row whose condition fires
        records the triggering phase and then drops out of the active
        sub-batch, issuing no further generator draws.
        """
        config = self.config
        network = self.network
        batch = config.batch_size
        num_paths = network.num_paths
        populations = config.num_agents
        blocks = network.paths.blocks

        initial_values = self._initial_flows(initial_flows)
        rngs = [np.random.default_rng(int(seed)) for seed in config.seeds]
        tele = get_telemetry()
        events_counter = tele.counter("agents_batch.events")
        migrations_counter = tele.counter("agents_batch.migrations")
        if config.stale:
            # Under a frozen board the agents of a commodity are exchangeable,
            # so a row's state is its per-path agent counts.
            counts = np.empty((batch, num_paths), dtype=np.int64)
            weights = np.empty((batch, num_paths))
            for row in range(batch):
                counts[row], weights[row] = population_counts(
                    network, int(populations[row]), initial_values[row]
                )
            flows = counts * weights

            def advance(phase, rows, starts, durations, transitions, flows, recording):
                """One multinomial per row over its phase's transition blocks."""
                migrations_counter.add(
                    self._advance_counts(counts, rows, rngs, transitions, blocks)
                )
                return counts[rows] * weights[rows]

        else:
            # Flat agent layout: row r owns agents offsets[r]:offsets[r+1].
            offsets = np.zeros(batch + 1, dtype=np.int64)
            np.cumsum(populations, out=offsets[1:])
            assignment = np.empty(int(offsets[-1]), dtype=np.int64)
            agent_weights = np.empty(int(offsets[-1]))
            for row in range(batch):
                span = slice(offsets[row], offsets[row + 1])
                assignment[span], agent_weights[span] = build_population(
                    network, int(populations[row]), initial_values[row]
                )
            row_key_base = np.repeat(np.arange(batch) * num_paths, populations)

            def realised_flows(rows: np.ndarray) -> np.ndarray:
                """The ``(R, P)`` realised flows of ``rows``, from their agents.

                Restricting the bincount to the rows' agent slices keeps
                heterogeneous-horizon sweeps from re-counting frozen
                populations; each row's buckets are summed in the same agent
                order either way, so the restriction is bit-neutral.
                """
                if len(rows) == batch:
                    span = slice(None)
                else:
                    span = np.concatenate(
                        [np.arange(offsets[row], offsets[row + 1]) for row in rows]
                    )
                keys = row_key_base[span] + assignment[span]
                flows = np.bincount(
                    keys, weights=agent_weights[span], minlength=batch * num_paths
                )
                return flows.reshape(batch, num_paths)[rows]

            flows = realised_flows(np.arange(batch))

            def advance(phase, rows, starts, durations, frozen, flows, recording):
                """Event-exact activations against live tables; moves ``flows`` in place."""
                events_counter.add(
                    self._apply_fresh_phase(
                        assignment,
                        agent_weights,
                        flows,
                        offsets,
                        rows,
                        rngs,
                        populations[rows] * durations,
                        blocks,
                    )
                )
                return realised_flows(rows)

        # Each row's agents represent each commodity's demand (a commodity
        # apportioned no agent represents none); migrations must keep it.
        represented = blocks.gather(flows).sum(axis=-1)
        fields = self._phase_loop(
            flows,
            stop_when,
            advance,
            represented,
            stale=config.stale,
            rows=batch,
            agents=int(populations.sum()),
            paths=num_paths,
        )
        agent_paths = None
        if not config.stale:
            agent_paths = [
                assignment[offsets[row] : offsets[row + 1]].copy() for row in range(batch)
            ]
            counts = np.stack([np.bincount(row, minlength=num_paths) for row in agent_paths])
        return BatchAgentResult(
            policy_names=[
                f"{policy.label()} (n={int(populations[row])})"
                for row, policy in enumerate(self._policies)
            ],
            num_agents=populations.copy(),
            seeds=config.seeds.copy(),
            final_counts=counts,
            agent_paths=agent_paths,
            **fields,
        )

    # Phase kernels ----------------------------------------------------------

    def _advance_counts(
        self,
        counts: np.ndarray,
        rows: np.ndarray,
        rngs: List[np.random.Generator],
        transitions: np.ndarray,
        blocks: CommodityBlocks,
    ) -> int:
        """Advance the path counts of ``rows`` through one frozen phase.

        Each of the ``n[c, j]`` agents in slot ``j`` of commodity ``c`` ends
        the phase in slot ``k`` with probability ``transitions[i, c, j, k]``,
        independently of every other agent.  So a row's end counts are one
        ``rng.multinomial`` draw summed over the source slot.  Returns how
        many agents ended the phase off their starting path.
        """
        migrations = 0
        slots = np.arange(transitions.shape[-1])
        for i, row in enumerate(rows):
            moves = rngs[row].multinomial(blocks.gather(counts[row]), transitions[i])
            migrations += int(counts[row].sum() - moves[..., slots, slots].sum())
            counts[row] = blocks.scatter(moves.sum(axis=-2))
        return migrations

    def _apply_fresh_phase(
        self,
        assignment: np.ndarray,
        weights: np.ndarray,
        flows_live: np.ndarray,
        offsets: np.ndarray,
        rows: np.ndarray,
        rngs: List[np.random.Generator],
        expected_activations: np.ndarray,
        blocks: CommodityBlocks,
    ) -> int:
        """Advance one up-to-date-information phase in per-row activation windows.

        Each row first issues the seeding contract's block draws (activation
        count, activated agents, sampling uniforms, migration coins).  A
        row's live tables depend only on its flow, which changes only when
        an activation migrates.  Each round therefore decides the next
        :data:`FRESH_WINDOW` activations of every row that still has some
        against the row's cached tables, applies only the first migrating
        one (with the subtract-then-add order of ``flows_live``) and moves
        the row's cursor past it; a row whose window holds no migration
        moves on by the whole window.  Every decision before the applied
        migration is a no-op that saw the live state exactly, so the outcome
        equals the event-by-event order.  Returns the number of activations.
        """
        draws = []
        for row, mean in zip(rows, expected_activations):
            rng = rngs[row]
            count = int(rng.poisson(mean))
            agents = rng.integers(offsets[row + 1] - offsets[row], size=count)
            draws.append((agents, rng.random(count), rng.random(count)))
        counts = np.array([len(agents) for agents, _, _ in draws], dtype=np.int64)
        if counts.max(initial=0) == 0:
            return 0
        # Per-row activation matrices, padded by one window so every window
        # gathers in bounds; padded activations carry an infinite coin, so
        # they never migrate.
        width = int(counts.max()) + FRESH_WINDOW
        agent_matrix = np.zeros((len(rows), width), dtype=np.int64)
        sample_matrix = np.zeros((len(rows), width))
        migrate_matrix = np.full((len(rows), width), np.inf)
        for i, (row, (agents, samples, coins)) in enumerate(zip(rows, draws)):
            agent_matrix[i, : len(agents)] = offsets[row] + agents
            sample_matrix[i, : len(agents)] = samples
            migrate_matrix[i, : len(agents)] = coins
        batch = len(flows_live)
        cdf_cache: Optional[np.ndarray] = None
        # mu blocks (zero on the diagonal) with the rows of zero sampling mass
        # zeroed: a coin in [0, 1) is below it iff the sampled path differs
        # from the current one, the row is valid and the coin clears mu.
        mu_cache = np.zeros((batch,) + blocks.pairs.shape)
        stale_tables = np.ones(batch, dtype=bool)
        cursors = np.zeros(len(rows), dtype=np.int64)
        window = np.arange(FRESH_WINDOW)
        while True:
            slots = (cursors < counts).nonzero()[0]
            if not len(slots):
                break
            live_rows = rows[slots]
            refresh = live_rows[stale_tables[live_rows]]
            if len(refresh):
                state = flows_live[refresh]
                latencies = self._path_latencies_rows(state, refresh)
                sigma, mu = self._stack.select(refresh).tables(blocks, state, latencies)
                cdf, valid = _sampling_cdf(sigma, blocks, len(refresh))
                if cdf_cache is None:
                    cdf_cache = np.zeros((batch,) + cdf.shape[1:])
                cdf_cache[refresh] = cdf
                mu_cache[refresh] = mu * valid[..., None]
                stale_tables[refresh] = False
            slot_index = slots[:, None]
            table_rows = live_rows[:, None]
            columns = cursors[slot_index] + window
            agents = agent_matrix[slot_index, columns]
            current = assignment[agents]
            commodity = blocks.commodity[current]
            own = blocks.slot[current]
            sampling_row = own if cdf_cache.shape[2] > 1 else 0
            local = (
                cdf_cache[table_rows, commodity, sampling_row]
                <= sample_matrix[slot_index, columns][..., None]
            ).sum(axis=2)
            sampled = blocks.index[commodity, local]
            chance = mu_cache[table_rows, commodity, own, local]
            migrate = migrate_matrix[slot_index, columns] < chance
            first = migrate.argmax(axis=1)
            cursors[slots] += FRESH_WINDOW
            # Rows migrate one agent each per round: scalar updates beat the
            # dozen fancy-index calls a vectorised update costs at small B.
            for i in migrate.any(axis=1).nonzero()[0]:
                at = first[i]
                agent, source, target = agents[i, at], current[i, at], sampled[i, at]
                row = live_rows[i]
                flows_live[row, source] -= weights[agent]
                flows_live[row, target] += weights[agent]
                assignment[agent] = target
                stale_tables[row] = True
                cursors[slots[i]] += at + 1 - FRESH_WINDOW
        return int(counts.sum())


def simulate_agent_batch(
    network: Networks,
    policies: Policies,
    num_agents,
    update_periods,
    horizons,
    initial_flows=None,
    seeds=0,
    stale: bool = True,
    stop_when: Optional[BatchStoppingCondition] = None,
    scenarios=None,
) -> BatchAgentResult:
    """Build a :class:`BatchAgentConfig` from per-row settings and run it once.

    The argument names follow :func:`repro.core.agents.simulate_agents`,
    pluralised where a setting may vary per row.
    """
    config = BatchAgentConfig(
        num_agents=num_agents,
        update_periods=update_periods,
        horizons=horizons,
        seeds=seeds,
        stale=stale,
    )
    return BatchAgentSimulator(network, policies, config, scenarios=scenarios).run(
        initial_flows, stop_when=stop_when
    )
