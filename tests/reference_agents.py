"""A finite-agent simulator written event by event from the model, sharing no engine code.

Each phase of length ``d`` draws, in order, ``K ~ Poisson(n d)``, the ``K``
activated ranks, ``K`` sampling uniforms and ``K`` migration coins (the
up-to-date-information seeding contract of ``repro.core.agents``).  The
replica's state is its path counts; rank ``a`` activates an agent on the
path whose cumulative count first exceeds ``a``.  An activated agent on
path P samples Q from ``sigma_P`` and moves iff its coin is below
``mu_PQ``, both taken from ``reference_dynamics``: stale agents read the
board posted at the phase start, fresh agents price the live flow at their
own activation.  The engine draws a stale phase as multinomials instead,
so only fresh runs match this replay event for event.
"""

import numpy as np

from reference_dynamics import tables
from repro.core.agents import population_counts


def reference_agents(network, sampling, l_max, exploration, n, period, horizon, seed,
                     start=None, stale=True, scenario=None):
    """Return ``(times, flows, assignment)`` at the phase ends of one replica.

    ``assignment`` lists every agent's final path in commodity-major path order.
    """
    counts, weights = population_counts(network, n, start)
    owner = [path.commodity_index for path in network.paths]
    rng = np.random.default_rng(seed)
    times, flows = [0.0], [counts * weights]
    phase = 0
    while phase == 0 or phase * period < horizon:
        begin, end = phase * period, min((phase + 1) * period, horizon)
        # The environment of the phase, frozen at its start.
        env = network if scenario is None else scenario.network_at(network, begin)
        count = rng.poisson(n * (end - begin))
        ranks = rng.integers(n, size=count)
        u_sample, u_migrate = rng.random(count), rng.random(count)
        sigma, mu = tables(env, sampling, l_max, exploration, counts * weights)  # the board
        for rank, u, coin in zip(ranks, u_sample, u_migrate):
            if not stale:
                sigma, mu = tables(env, sampling, l_max, exploration, counts * weights)
            p = int(np.searchsorted(np.cumsum(counts), rank, side="right"))
            a, b = network.paths.commodity_slice(owner[p])
            weights_q = sigma[p, a:b]
            if weights_q.sum() <= 0:
                continue
            q = a + int(np.searchsorted(np.cumsum(weights_q) / weights_q.sum(), u, side="right"))
            if q != p and coin < mu[p, q]:
                counts[p] -= 1
                counts[q] += 1
        times.append(end)
        flows.append(counts * weights)
        phase += 1
    return np.array(times), np.array(flows), np.repeat(np.arange(network.num_paths), counts)
