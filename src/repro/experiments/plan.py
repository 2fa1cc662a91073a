"""Experiment plans: declarative grids of simulation cases with stable seeds.

An :class:`ExperimentPlan` is a named list of
:class:`~repro.analysis.sweeps.SweepCase` objects, typically built from the
cartesian product of parameter axes (:func:`repro.analysis.sweeps.cartesian`).
Every case carries a *deterministic* seed derived from the plan's base seed
and the case's parameters, so randomised ingredients (random starting flows,
random instances) are reproducible run over run and independent of how the
runner groups the cases.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..analysis.sweeps import SweepCase, cartesian

# A case builder receives one parameter combination plus a per-case RNG and
# returns the fully specified simulation case.
CaseBuilder = Callable[[Dict[str, object], np.random.Generator], SweepCase]


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def case_seed(base_seed: int, index: int, parameters: Mapping[str, object]) -> int:
    """Return a stable 63-bit seed for one case of a plan.

    The seed depends only on the base seed, the case's position and its
    parameter dictionary (serialised deterministically), never on object
    identities or execution order — rerunning the same plan always reproduces
    the same randomness per case.
    """
    payload = json.dumps(
        {"base": int(base_seed), "index": int(index), "params": parameters},
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class ExperimentPlan:
    """A named, seeded list of sweep cases ready for the runner.

    Attributes
    ----------
    name:
        Plan identifier, echoed into persisted results.
    cases:
        The fully specified simulation cases.
    seeds:
        One deterministic seed per case (same length as ``cases``).
    base_seed:
        The seed the per-case seeds were derived from.

    ``base_seed`` must be an integer and every seed a non-negative integer
    (they seed :func:`numpy.random.default_rng`); anything else is
    rejected, naming the field, rather than truncated.
    """

    name: str
    cases: List[SweepCase] = field(default_factory=list)
    seeds: List[int] = field(default_factory=list)
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not _is_integer(self.base_seed):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        for index, seed in enumerate(self.seeds):
            if not _is_integer(seed) or seed < 0:
                raise ValueError(f"seeds[{index}] must be a non-negative integer, got {seed!r}")
        if not self.seeds:
            self.seeds = [
                case_seed(self.base_seed, i, case.parameters)
                for i, case in enumerate(self.cases)
            ]
        if len(self.seeds) != len(self.cases):
            raise ValueError("plans need exactly one seed per case")

    def __len__(self) -> int:
        return len(self.cases)

    @classmethod
    def from_grid(
        cls,
        name: str,
        grid: Sequence[Dict[str, object]],
        case_builder: CaseBuilder,
        base_seed: int = 0,
    ) -> "ExperimentPlan":
        """Build a plan from an explicit list of parameter combinations.

        ``case_builder(params, rng)`` is called once per combination with a
        generator seeded by that case's deterministic seed; use the generator
        for any randomised ingredient (e.g. ``FlowVector.random``).
        """
        cases: List[SweepCase] = []
        seeds: List[int] = []
        for index, params in enumerate(grid):
            seed = case_seed(base_seed, index, params)
            rng = np.random.default_rng(seed)
            case = case_builder(dict(params), rng)
            cases.append(case)
            seeds.append(seed)
        return cls(name=name, cases=cases, seeds=seeds, base_seed=base_seed)

    @classmethod
    def from_axes(
        cls,
        name: str,
        case_builder: CaseBuilder,
        base_seed: int = 0,
        **axes: Sequence[object],
    ) -> "ExperimentPlan":
        """Build a plan from the cartesian product of named parameter axes."""
        return cls.from_grid(name, cartesian(**axes), case_builder, base_seed=base_seed)

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "ExperimentPlan":
        """Return a plan containing only the selected cases (seeds preserved)."""
        return ExperimentPlan(
            name=name or self.name,
            cases=[self.cases[i] for i in indices],
            seeds=[self.seeds[i] for i in indices],
            base_seed=self.base_seed,
        )
