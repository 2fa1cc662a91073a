"""Rerouting policies: sampling rule + migration rule.

A :class:`ReroutingPolicy` bundles the two steps of Section 2.2 and exposes
the *migration-rate field*

    rho_PQ(f, f_posted) = f_P * sigma_PQ(f_posted) * mu(l_P(f_posted), l_Q(f_posted))

which drives the fluid-limit differential equation.  Note the asymmetry that
defines the stale-information model: the current flow ``f`` enters only
through the factor ``f_P`` (how many agents are available to leave ``P``),
while sampling and migration probabilities are evaluated on the *posted*
bulletin-board state.

:class:`PolicyStack` evaluates the policies of ``R`` rows, grouped by rule
class with per-row parameters stacked, on commodity blocks
(:class:`~repro.wardrop.paths.CommodityBlocks`).  Within a stale phase the
rates ``sigma * mu`` are fixed, and the phase is solved exactly
(:mod:`repro.core.dynamics`); :func:`frozen_field` turns live tables into
the right-hand side of Eq. (1) that up-to-date rows integrate.

Factory helpers build the named policies of the paper:

* :func:`replicator_policy` -- proportional sampling + linear migration
  (the replicator dynamics, Theorem 7),
* :func:`uniform_policy` -- uniform sampling + linear migration (Theorem 6),
* :func:`better_response_policy` -- the non-smooth negative example,
* :func:`best_response_policy` -- best-reply sampling + unit migration
  (best response, Eq. 2/4),
* :func:`smoothed_best_response_policy` -- softmax sampling + steep ramp.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..wardrop.network import WardropNetwork
from ..wardrop.paths import CommodityBlocks
from .migration import (
    BetterResponseMigration,
    LinearMigration,
    MigrationRule,
    ScaledLinearMigration,
    SmoothedBetterResponseMigration,
    UnitMigration,
)
from .sampling import (
    BestReplySampling, ProportionalSampling, SamplingRule, SoftmaxSampling, UniformSampling
)
from .smoothness import safe_update_period_for_rule

Rule = Union[SamplingRule, MigrationRule]


@dataclass
class ReroutingPolicy:
    """A two-step (sample, then migrate) rerouting policy.

    Attributes
    ----------
    sampling:
        The sampling rule producing ``sigma_PQ``.
    migration:
        The migration rule producing ``mu(l_P, l_Q)``.
    name:
        Optional display name used in benchmark tables.
    """

    sampling: SamplingRule
    migration: MigrationRule
    name: str = ""

    def label(self) -> str:
        return self.name or f"{self.sampling.name}+{self.migration.name}"

    @property
    def smoothness(self) -> Optional[float]:
        """The smoothness parameter alpha of the migration rule (None if non-smooth)."""
        return self.migration.smoothness

    def check_fresh_fluid(self) -> None:
        """Raise unless the fluid model of this policy is well posed under fresh information.

        Under a rule that is not alpha-smooth (better or best response,
        discontinuous where two latencies cross) Eq. (1) is a differential
        inclusion whose solutions chatter at equilibrium, so no step control
        follows it.  Such a policy runs stale (exact phases) or on the agent
        engine.
        """
        if self.smoothness is None:
            raise ValueError(
                f"policy {self.label()} is not alpha-smooth, so its fresh fluid run is "
                "not well posed: run it stale or with the agent engine"
            )

    def safe_update_period(self, network: WardropNetwork) -> float:
        """Return the Lemma 4 safe bulletin-board period for this policy."""
        return safe_update_period_for_rule(network, self.migration)


Group = Tuple[np.ndarray, Rule]


def _stack(rules: Sequence[Rule], shape: Tuple[int, ...]) -> Tuple[Group, ...]:
    """Group rows by rule class; return ``(rows, rule)`` pairs, one per group.

    Each group's ``rule`` evaluates all its rows at once: parameters that
    differ between the group's members become arrays of ``shape`` (one entry
    per group row).  Rules with opaque state (``parameters is None``) group
    by instance.
    """
    grouped = {}
    for row, rule in enumerate(rules):
        grouped.setdefault(id(rule) if rule.parameters is None else type(rule), []).append(row)
    groups = []
    for rows in grouped.values():
        members = [rules[row] for row in rows]
        rule = members[0]
        if any(member is not rule for member in members):
            rule = copy.copy(rule)
            for name in rule.parameters:
                values = np.array([getattr(member, name) for member in members], dtype=float)
                if (values != values[0]).any():
                    setattr(rule, name, values.reshape(shape))
        groups.append((np.array(rows), rule))
    return tuple(groups)


def _select(groups: Tuple[Group, ...], rows: np.ndarray) -> Tuple[Group, ...]:
    """Restrict every group to the sorted ``rows``, indexing its stacked parameters."""
    selected = []
    for members, rule in groups:
        positions = np.flatnonzero(np.isin(rows, members))
        stacked = [n for n in rule.parameters or () if isinstance(getattr(rule, n), np.ndarray)]
        if stacked:
            index = np.searchsorted(members, rows[positions])
            rule = copy.copy(rule)
            for name in stacked:
                setattr(rule, name, getattr(rule, name)[index])
        if len(positions):
            selected.append((positions, rule))
    return tuple(selected)


def _combine(groups: Tuple[Group, ...], size: int, evaluate) -> np.ndarray:
    """Evaluate every group on its rows and assemble one ``(size, ...)`` array.

    A lone group holds every row and returns its result as is, so it may
    keep a leading axis of 1 that broadcasts over the rows.
    """
    if len(groups) == 1:
        return evaluate(groups[0][1], slice(None))
    parts = [(rows, evaluate(rule, rows)) for rows, rule in groups]
    combined = np.zeros((size,) + np.broadcast_shapes(*(part.shape[1:] for _, part in parts)))
    for rows, part in parts:
        combined[rows] = part
    return combined


@dataclass(frozen=True)
class PolicyStack:
    """The policies of ``R`` rows, grouped by rule class with parameters stacked.

    Rows whose sampling (or migration) rules share a class form one group,
    evaluated as one rule instance whose differing float ``parameters`` are
    per-row arrays -- the way
    :class:`~repro.wardrop.latency.EdgeLatencyTable` stacks latency
    coefficients -- so a batch with per-row policies costs one kernel call
    per rule class, not one per row.  Build it once per engine with
    :meth:`of` (and again when a column-generation path set grows), restrict
    it to a phase's active rows with :meth:`select`, and evaluate the tables
    of a posted state with :meth:`tables`.
    """

    size: int
    sampling: Tuple[Group, ...]
    migration: Tuple[Group, ...]

    @classmethod
    def of(cls, policies: Sequence[ReroutingPolicy]) -> "PolicyStack":
        return cls(
            len(policies),
            _stack([policy.sampling for policy in policies], (-1, 1, 1)),
            _stack([policy.migration for policy in policies], (-1, 1, 1, 1)),
        )

    def select(self, rows: np.ndarray) -> "PolicyStack":
        """Return the stack of the rows ``rows`` (sorted), in that order."""
        if len(rows) == self.size:
            return self
        return PolicyStack(len(rows), _select(self.sampling, rows), _select(self.migration, rows))

    def tables(
        self,
        blocks: CommodityBlocks,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return the sampling and migration blocks of the ``(R, P)`` posted state.

        ``sigma`` broadcasts to ``(R, C, K, K)`` (the built-in rules return
        ``(R or 1, C, 1, K)``) and ``mu`` is ``(R, C, K, K)``.
        """
        flows = blocks.gather(posted_flows)
        latencies = blocks.gather(posted_path_latencies)
        sigma = _combine(
            self.sampling,
            self.size,
            lambda rule, rows: rule.probabilities(blocks, flows[rows], latencies[rows]),
        )
        mu = _combine(
            self.migration, self.size, lambda rule, rows: rule.matrix(blocks, latencies[rows])
        )
        return sigma, mu


def frozen_field(blocks: CommodityBlocks, sigma: np.ndarray, mu: np.ndarray):
    """Return the field ``state -> df/dt`` of Eq. (1) for the tables ``sigma``, ``mu``.

    ``df_P/dt = sum_Q (rho_QP - rho_PQ)`` with ``rho_PQ = f_P sigma_PQ
    mu_PQ``: the inflow of the gathered ``(R, C, K)`` state is one batched
    ``(R, C, 1, K) @ (R, C, K, K)`` product, the outflow is subtracted and
    the result, which sums to zero within every commodity, is scattered
    back.  It serves up-to-date rows, which rebuild the tables from the live
    state at every integrator stage; a stale phase is not integrated but
    solved exactly (:func:`~repro.core.dynamics.transition_blocks`).
    """
    rates = sigma * mu
    outflow_rates = rates.sum(axis=-1)

    def field(state: np.ndarray) -> np.ndarray:
        flows = blocks.gather(state)
        inflow = np.matmul(flows[..., None, :], rates)[..., 0, :]
        return blocks.scatter(inflow - flows * outflow_rates)

    return field


def uniform_policy(network: WardropNetwork, max_latency: Optional[float] = None) -> ReroutingPolicy:
    """Uniform sampling + linear migration (the Theorem 6 policy)."""
    return ReroutingPolicy(
        sampling=UniformSampling(),
        migration=LinearMigration(network.max_latency() if max_latency is None else max_latency),
        name="uniform+linear",
    )


def replicator_policy(
    network: WardropNetwork,
    max_latency: Optional[float] = None,
    exploration: float = 1e-6,
) -> ReroutingPolicy:
    """Proportional sampling + linear migration (replicator dynamics, Theorem 7)."""
    return ReroutingPolicy(
        sampling=ProportionalSampling(exploration=exploration),
        migration=LinearMigration(network.max_latency() if max_latency is None else max_latency),
        name="replicator",
    )


def better_response_policy(sampling: Optional[SamplingRule] = None) -> ReroutingPolicy:
    """Sampling + better-response migration: the non-smooth negative example."""
    return ReroutingPolicy(
        sampling=sampling or UniformSampling(),
        migration=BetterResponseMigration(),
        name="better-response",
    )


def best_response_policy() -> ReroutingPolicy:
    """Best-reply sampling + unit migration: best response (Eq. 2, Eq. 4 when stale)."""
    return ReroutingPolicy(BestReplySampling(), UnitMigration(), name="best-response")


def smoothed_best_response_policy(concentration: float, width: float) -> ReroutingPolicy:
    """Softmax sampling (parameter ``c``) + steep linear ramp (parameter ``width``).

    Approaches best response as ``concentration`` grows and ``width`` shrinks;
    remains formally alpha-smooth with ``alpha = 1/width``.
    """
    return ReroutingPolicy(
        sampling=SoftmaxSampling(concentration),
        migration=SmoothedBetterResponseMigration(width),
        name=f"smoothed-BR(c={concentration:g},w={width:g})",
    )


def scaled_policy(alpha: float, sampling: Optional[SamplingRule] = None) -> ReroutingPolicy:
    """Uniform (or given) sampling + ``alpha``-scaled linear migration."""
    return ReroutingPolicy(
        sampling=sampling or UniformSampling(),
        migration=ScaledLinearMigration(alpha),
        name=f"scaled(alpha={alpha:g})",
    )
