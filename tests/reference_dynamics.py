"""A fluid-limit solver written from Eq. (1)/(3), sharing no engine code.

Flow leaves path P for Q at ``rho_PQ = f_P sigma_PQ mu(l_P, l_Q)``; stale runs
read sigma and mu off the board posted at each phase start ``kT``, so each
stale phase is the linear system ``df/dt = f Lambda`` and is solved with
``scipy.linalg.expm``.  Fresh runs are integrated with Euler or RK4.
"""

import numpy as np
from scipy.linalg import expm


def tables(network, sampling, l_max, exploration, posted):
    """Return ``(sigma, mu)`` for every path pair of a posted state (0 across commodities)."""
    latencies = network.path_latencies(posted)
    sigma, mu = np.zeros((2, len(posted), len(posted)))
    for i in range(network.num_commodities):
        a, b = network.paths.commodity_slice(i)
        # sigma_PQ = f_Q / r_i (proportional) or 1 / |P_i| (uniform), plus exploration.
        shares = np.ones(b - a) if sampling == "uniform" else np.clip(posted[a:b], 0.0, None)
        sigma[a:b, a:b] = (1.0 - exploration) * shares / shares.sum() + exploration / (b - a)
        mu[a:b, a:b] = np.clip((latencies[a:b, None] - latencies[None, a:b]) / l_max, 0.0, 1.0)
    return sigma, mu


def transition_rates(network, sampling, l_max, exploration, posted):
    """Return ``sigma_PQ * mu(l_P, l_Q)`` for every path pair of a posted state."""
    sigma, mu = tables(network, sampling, l_max, exploration, posted)
    return sigma * mu


def project(network, flow):  # clip, then rescale every commodity to its demand
    flow = np.clip(flow, 0.0, None)
    for i, commodity in enumerate(network.commodities):
        a, b = network.paths.commodity_slice(i)
        flow[a:b] *= commodity.demand / flow[a:b].sum()
    return flow


def reference_run(network, sampling, l_max, exploration, period, horizon, steps,
                  method, start, stale=True, dense=False):
    """Return ``(times, flows)`` at phase ends (and after every sub-step if ``dense``)."""
    flow = np.array(start, dtype=float)
    samples = [(0.0, flow)]
    for k in range(int(np.ceil(horizon / period))):
        begin, end = k * period, min((k + 1) * period, horizon)
        if begin >= horizon:  # ceil(horizon / period) can overshoot by one ulp
            break
        ratio = (end - begin) / (period / steps)  # sub-steps <= T / steps, where a
        if abs(ratio - round(ratio)) <= 1e-9 * round(ratio):  # rounded full phase is T
            ratio = round(ratio)
        count = int(np.ceil(ratio))
        h = (end - begin) / count
        board = transition_rates(network, sampling, l_max, exploration, flow)
        if stale:  # Lambda = rates - diag(outflow rates); f(t) = f(kT) expm((t - kT) Lambda)
            generator = board - np.diag(board.sum(axis=1))
            if dense:
                for j in range(1, count):
                    samples.append((begin + j * h, project(network, flow @ expm(j * h * generator))))
            flow = project(network, flow @ expm((end - begin) * generator))
            samples.append((end, flow))
            continue

        def field(x):
            rates = transition_rates(network, sampling, l_max, exploration, x)
            return x @ rates - x * rates.sum(axis=1)  # inflow minus outflow

        for j in range(count):
            if method == "euler":
                flow = flow + h * field(flow)
            else:
                k1 = field(flow)
                k2 = field(flow + 0.5 * h * k1)
                k3 = field(flow + 0.5 * h * k2)
                flow = flow + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + field(flow + h * k3))
            if dense and j + 1 < count:
                samples.append((begin + (j + 1) * h, project(network, flow)))
        flow = project(network, flow)
        samples.append((end, flow))
    return np.array([t for t, _ in samples]), np.array([f for _, f in samples])
