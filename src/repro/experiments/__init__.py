"""Experiment plans and the experiment runner.

Build an :class:`ExperimentPlan` from parameter axes, then run it with
:func:`run_plan`: every group of same-topology cases runs as one batched
call, a lone case as a one-row batch, and every case carries a
deterministic seed so randomised ingredients reproduce exactly.  Results persist as CSV/JSONL via
:class:`~repro.analysis.sweeps.SweepResult`.
"""

from .plan import CaseBuilder, ExperimentPlan, case_seed
from .runner import group_key, run_cases, run_plan

__all__ = [
    "CaseBuilder",
    "ExperimentPlan",
    "case_seed",
    "group_key",
    "run_cases",
    "run_plan",
]
