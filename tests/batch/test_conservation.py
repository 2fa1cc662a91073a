"""The per-phase conservation check of the fluid, column-generation and agent engines.

At every phase boundary each active row's per-commodity totals must match the
commodity demands to a relative 1e-9; a violation raises naming the engine,
the row, the phase and the commodity.  A layout whose ``scatter`` drops one
slot of the second commodity must fail at the first phase.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import simulate_agent_batch, simulate_batch
from repro.batch.agents import BatchAgentSimulator
from repro.core import uniform_policy
from repro.largescale import ActivePathSet, simulate_with_column_generation_batch
from repro.wardrop.paths import CommodityBlocks


@pytest.fixture
def dropped_slot(monkeypatch):
    """``scatter`` loses slot 0 of commodity 1 (global path 3 of ``ragged``)."""
    original = CommodityBlocks.scatter

    def scatter(self, blocks):
        blocks = blocks.copy()
        blocks[..., 1, 0] = 0.0
        return original(self, blocks)

    monkeypatch.setattr(CommodityBlocks, "scatter", scatter)


def test_fluid_engine_names_the_row_phase_and_commodity(ragged, dropped_slot):
    with pytest.raises(ValueError, match=r"fluid-batch: row 0 routes .* on commodity 1 at the end of phase 0"):
        simulate_batch(ragged, uniform_policy(ragged), [0.1, 0.2], 1.0)


def test_column_generation_engine_names_the_row_phase_and_commodity(ragged, dropped_slot):
    active = ActivePathSet.from_network(ragged, closed=True)
    with pytest.raises(ValueError, match=r"column-generation-batch: row 0 .* commodity 1 .* phase 0"):
        simulate_with_column_generation_batch(
            active, uniform_policy(ragged), update_period=0.1, horizon=1.0, batch=2
        )


def test_agent_engine_names_the_row_phase_and_commodity(ragged, monkeypatch):
    """An agent moved to another commodity's path changes both totals."""
    original = BatchAgentSimulator._advance_counts

    def leaky(self, counts, rows, *args):
        migrations = original(self, counts, rows, *args)
        if 1 in rows:
            source = int(np.flatnonzero(counts[1, :3])[0])
            counts[1, source] -= 1
            counts[1, 3] += 1
        return migrations

    monkeypatch.setattr(BatchAgentSimulator, "_advance_counts", leaky)
    with pytest.raises(ValueError, match=r"agents-batch: row 1 routes .* on commodity 0 at the end of phase 0"):
        simulate_agent_batch(ragged, uniform_policy(ragged), [50, 60], 0.1, 1.0, seeds=[1, 2])


def test_intact_runs_pass_the_check(ragged):
    result = simulate_batch(ragged, uniform_policy(ragged), [0.1, 0.2], 1.0)
    blocks = ragged.paths.blocks
    totals = blocks.gather(result.final_flows()).sum(axis=-1)
    np.testing.assert_allclose(totals, np.broadcast_to(ragged.commodity_demands, totals.shape), rtol=1e-12)
