"""Statistical regression guard for E9: finite agents approach the fluid ODE.

Property (seeded grid, deterministic in CI): on the Pigou and Braess
instances the batched finite-population engine's empirical path shares
converge to the fluid-limit trajectory as the population grows -- the
sup-norm deviation averaged over replicas shrinks monotonically along an
order-of-magnitude ``n`` grid and ends in the ``O(1/sqrt(n))`` regime, under
stale and up-to-date information alike (each against the fluid run of its
own information model).  All replicas of the whole grid run as one batched
call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import fluid_limit_deviation
from repro.batch import simulate_agent_batch
from repro.core import replicator_policy, simulate
from repro.instances import braess_network, pigou_network

POPULATIONS = [100, 1000, 10000]
REPLICAS = 3
UPDATE_PERIOD = 0.1
HORIZON = 5.0


@pytest.mark.parametrize("stale", [True, False], ids=["stale", "fresh"])
@pytest.mark.parametrize(
    "make_network",
    [lambda: pigou_network(degree=1), lambda: braess_network(with_shortcut=True)],
    ids=["pigou", "braess"],
)
def test_empirical_shares_converge_to_fluid_trajectory(make_network, stale):
    network = make_network()
    policy = replicator_policy(network, exploration=1e-3)
    fluid = simulate(
        network, policy, update_period=UPDATE_PERIOD, horizon=HORIZON, stale=stale
    )

    grid = [(n, replica) for n in POPULATIONS for replica in range(REPLICAS)]
    result = simulate_agent_batch(
        network,
        policy,
        num_agents=[n for n, _ in grid],
        update_periods=UPDATE_PERIOD,
        horizons=HORIZON,
        seeds=[1000 * n + replica for n, replica in grid],
        stale=stale,
    )

    deviations = {n: [] for n in POPULATIONS}
    for row, (n, _) in enumerate(grid):
        deviations[n].append(fluid_limit_deviation(result.trajectory(row), fluid))
    means = [float(np.mean(deviations[n])) for n in POPULATIONS]

    # Deviation shrinks monotonically along the order-of-magnitude grid ...
    assert means[0] > means[1] > means[2], means
    # ... and the largest population sits in the O(1/sqrt(n)) regime (the
    # constant 5 is a loose regression bound, not a theorem constant).
    assert means[-1] < 5.0 / np.sqrt(POPULATIONS[-1]), means
    # Sanity: small populations are genuinely far from the fluid limit, so
    # the monotone chain above is not comparing numerical noise.
    assert means[0] > means[-1] * 2, means
