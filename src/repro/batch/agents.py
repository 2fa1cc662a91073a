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
(final counts, trajectory, stop phase).  Every row owns its own ``numpy``
generator seeded with its own seed and issues the draws of the seeding
contract (:mod:`repro.core.agents`) whatever the other rows do, and every
kernel is row-wise (``tests/batch/test_agent_equivalence.py``,
``tests/batch/test_agent_stopping.py``).  *Reference*: a one-row
up-to-date-information run matches an event-by-event simulator written
directly from the model (``tests/reference_agents.py``) in its final
counts exactly; a stale run matches the model in distribution, checked by a
chi-square test against ``scipy.linalg.expm``
(``tests/core/test_reference_agents.py``).

Every activation picks one of a commodity's agents uniformly at random, so
the agents of a commodity are exchangeable and a row's state is its
``(P,)`` path counts under either information model; its realised flow is
``counts * weights``, no per-agent array exists and the state costs
O(paths) at any ``n``.  Under stale information every agent reads the same
frozen board, so within a phase of length ``d`` each agent moves on its
own, as a continuous-time Markov chain whose generator ``Lambda`` (rate-1
clocks times the sampling and migration blocks) the board fixes, and a
phase moves the ``n_P`` agents of path ``P`` by one multinomial over row
``P`` of ``expm(d * Lambda)`` (the stale-phase kernel of
:mod:`repro.core.dynamics`, which the fluid engine applies to the flow).
Under up-to-date information an activation draws a rank into the row's
agents in commodity-major path order of its current counts.  Each row is
advanced in windows of its next :data:`FRESH_WINDOW` activations decided
against its cached live tables; only the first migrating activation of the
window is applied (every earlier one is a no-op, so it saw exactly the live
state an event-by-event run would): one count moves, the row's cumulative
counts between source and target shift by one, its cursor moves past the
activation and its tables are refreshed.  The outcome equals the
event-by-event order by construction.

Both kernels read the tables on commodity blocks
(:class:`~repro.wardrop.paths.CommodityBlocks`): an agent in slot ``j`` of
commodity ``c`` samples slot ``k`` from its sampling block row and moves
when its coin clears ``mu[r, c, j, k]``.

The phases run on the fluid engine's phase loop
(:meth:`~repro.batch.engine.BatchEnsembleBase._phase_loop`): phase grid,
scenario freezing, the board post at every phase start (Eq. 3), the
finiteness and conservation checks (each row's per-commodity totals to a
relative 1e-9), recording and ``stop_when`` freezing are the fluid engine's
own.  This engine supplies the path counts built from the initial flows, the
stale phase's transition blocks and its advance step, and the result is a
:class:`~repro.batch.engine.BatchResult` (:class:`BatchAgentResult`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.agents import DEFAULT_NUM_AGENTS, population_counts
from ..core.dynamics import rate_generator, transition_blocks
from ..telemetry.runtime import get_telemetry
from ..wardrop.paths import CommodityBlocks
from ..wardrop.validation import (
    require_nonnegative_integer,
    require_positive,
    require_positive_integer,
)
from .board import BatchBulletinBoard
from .engine import BatchEnsembleBase, BatchResult, Networks, Policies, StopPredicate

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
    at the end, the whole final state of a row under either information
    model.
    """

    num_agents: np.ndarray
    seeds: np.ndarray
    final_counts: np.ndarray

    @property
    def assignments(self) -> Sequence[np.ndarray]:
        """Each row's final agent-to-path assignment, indexed by row.

        Agents of a commodity are exchangeable, so a row's assignment is
        spelled out from its final counts when indexed, agents in
        commodity-major path order.  A slice gives a list of rows.
        """
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
        stop_when: Optional[StopPredicate] = None,
    ) -> BatchAgentResult:
        """Simulate every replica to its horizon and return the batch result.

        ``initial_flows`` may be ``None`` (uniform split for every row), a
        single :class:`FlowVector` (shared start), a sequence of ``B`` flow
        vectors or a raw ``(B, P)`` array; each row's path counts are built
        from its target flow with largest-remainder rounding.

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
        # The agents of a commodity are exchangeable, so a row's state is its
        # per-path agent counts under either information model.
        counts = np.empty((batch, num_paths), dtype=np.int64)
        weights = np.empty((batch, num_paths))
        for row in range(batch):
            counts[row], weights[row] = population_counts(
                network, int(populations[row]), initial_values[row]
            )
        flows = counts * weights

        def advance(phase, rows, starts, durations, transitions, flows, recording):
            """Move ``counts`` through one phase; return the rows' realised flows."""
            if config.stale:
                migrations_counter.add(
                    self._advance_counts(counts, rows, rngs, transitions, blocks)
                )
            else:
                events_counter.add(
                    self._apply_fresh_phase(counts, weights, rows, rngs, durations, blocks)
                )
            return counts[rows] * weights[rows]

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
        return BatchAgentResult(
            policy_names=[
                f"{policy.label()} (n={int(populations[row])})"
                for row, policy in enumerate(self._policies)
            ],
            num_agents=populations.copy(),
            seeds=config.seeds.copy(),
            final_counts=counts,
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
        counts: np.ndarray,
        weights: np.ndarray,
        rows: np.ndarray,
        rngs: List[np.random.Generator],
        durations: np.ndarray,
        blocks: CommodityBlocks,
    ) -> int:
        """Advance one up-to-date-information phase in per-row activation windows.

        Each row first issues the seeding contract's block draws (activation
        count, activated ranks, sampling uniforms, migration coins).  Rank
        ``a`` activates an agent on the path whose cumulative count first
        exceeds ``a``: the agents in commodity-major path order of the row's
        current counts.  A row's live tables depend only on its counts, which
        change only when an activation migrates.  Each round therefore
        decides the next :data:`FRESH_WINDOW` activations of every row that
        still has some against the row's cached tables, applies only the
        first migrating one (one count moves from its source to its target
        path, and the cumulative counts between the two shift by one) and
        moves the row's cursor past it; a row whose window holds no migration
        moves on by the whole window.  Every decision before the applied migration is a no-op that
        saw the live state exactly, so the outcome equals the event-by-event
        order.  Returns the number of activations.
        """
        draws = []
        for row, duration in zip(rows, durations):
            rng = rngs[row]
            population = counts[row].sum()
            count = int(rng.poisson(population * duration))
            ranks = rng.integers(population, size=count)
            draws.append((ranks, rng.random(count), rng.random(count)))
        activations = np.array([len(ranks) for ranks, _, _ in draws], dtype=np.int64)
        if activations.max(initial=0) == 0:
            return 0
        # Row r's ranks and cumulative counts are keyed by r * span, so the
        # flattened cumulative counts are sorted and one searchsorted maps
        # every activation to its flat index r * P + path.
        batch, num_paths = counts.shape
        span = int(counts.sum(axis=1).max()) + 1
        cumulative = np.cumsum(counts, axis=1) + np.arange(batch)[:, None] * span
        # Per-row activation matrices, padded by one window so every window
        # gathers in bounds; padded activations carry an infinite coin, so
        # they never migrate.
        width = int(activations.max()) + FRESH_WINDOW
        key_matrix = np.zeros((len(rows), width), dtype=np.int64)
        sample_matrix = np.zeros((len(rows), width))
        migrate_matrix = np.full((len(rows), width), np.inf)
        for i, (row, (ranks, samples, coins)) in enumerate(zip(rows, draws)):
            key_matrix[i, : len(ranks)] = row * span + ranks
            sample_matrix[i, : len(ranks)] = samples
            migrate_matrix[i, : len(ranks)] = coins
        cdf_cache: Optional[np.ndarray] = None
        # mu blocks (zero on the diagonal) with the rows of zero sampling mass
        # zeroed: a coin in [0, 1) is below it iff the sampled path differs
        # from the current one, the row is valid and the coin clears mu.
        mu_cache = np.zeros((batch,) + blocks.pairs.shape)
        stale_tables = np.ones(batch, dtype=bool)
        cursors = np.zeros(len(rows), dtype=np.int64)
        window = np.arange(FRESH_WINDOW)
        while True:
            slots = (cursors < activations).nonzero()[0]
            if not len(slots):
                break
            live_rows = rows[slots]
            refresh = live_rows[stale_tables[live_rows]]
            if len(refresh):
                state = counts[refresh] * weights[refresh]
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
            keys = key_matrix[slot_index, columns]
            current = cumulative.ravel().searchsorted(keys, side="right") % num_paths
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
                row, source, target = live_rows[i], current[i, at], sampled[i, at]
                counts[row, source] -= 1
                counts[row, target] += 1
                # The paths between the two now hold one agent fewer (or more)
                # in front of them.
                if source < target:
                    cumulative[row, source:target] -= 1
                else:
                    cumulative[row, target:source] += 1
                stale_tables[row] = True
                cursors[slots[i]] += at + 1 - FRESH_WINDOW
        return int(activations.sum())


def simulate_agent_batch(
    network: Networks,
    policies: Policies,
    num_agents,
    update_periods,
    horizons,
    initial_flows=None,
    seeds=0,
    stale: bool = True,
    stop_when: Optional[StopPredicate] = None,
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
