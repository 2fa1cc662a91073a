"""A fluid-limit solver written from Eq. (1)/(3), sharing no engine code.

Flow leaves path P for Q at ``rho_PQ = f_P sigma_PQ mu(l_P, l_Q)``; stale runs
read sigma and mu off the board posted at each phase start ``kT``, so each
stale phase is the linear system ``df/dt = f Lambda`` and is solved with
``scipy.linalg.expm``.  Fresh phases are solved with
``scipy.integrate.solve_ivp`` (DOP853, rtol 1e-12), which steps onto every
sample and restarts where two latencies cross.
"""

import numpy as np
from scipy.integrate import solve_ivp
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
                  start, stale=True, record_every=None):
    """Return ``(times, flows)`` at phase ends, and every ``record_every``-th grid sub-step."""
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
        marks = range(record_every, count, record_every) if record_every else []
        board = transition_rates(network, sampling, l_max, exploration, flow)
        if stale:  # Lambda = rates - diag(outflow rates); f(t) = f(kT) expm((t - kT) Lambda)
            generator = board - np.diag(board.sum(axis=1))
            for j in marks:
                samples.append((begin + j * h, project(network, flow @ expm(j * h * generator))))
            flow = project(network, flow @ expm((end - begin) * generator))
            samples.append((end, flow))
            continue

        offsets = [j * h for j in marks] + [end - begin]
        points = fresh_phase(network, sampling, l_max, exploration, flow, offsets)
        for offset, x in zip(offsets[:-1], points):
            samples.append((begin + offset, project(network, x)))
        flow = project(network, points[-1])
        samples.append((end, flow))
    return np.array([t for t, _ in samples]), np.array([f for _, f in samples])


def fresh_phase(network, sampling, l_max, exploration, flow, offsets):
    """Solve Eq. (1) from ``flow`` and return the states at the increasing ``offsets``.

    mu has a kink where two latencies of a commodity cross, which an
    embedded error estimate can miss, so the solver stops at the first
    crossing of every pair and restarts there.  Later crossings of the same
    pair within the phase are not located: near an equilibrium the gap
    changes sign at round-off level, where the kink does not matter.  Every
    returned state and restart is a step end, never an interpolated one.
    """
    def field(_t, x):
        rates = transition_rates(network, sampling, l_max, exploration, x)
        return x @ rates - x * rates.sum(axis=1)  # inflow minus outflow

    def crossing(p, q):
        def gap(_t, x):
            latencies = network.path_latencies(x)
            return latencies[p] - latencies[q]

        gap.terminal = True
        return gap

    def solve(state, begin, end, events=None):
        return solve_ivp(
            field, (begin, end), state, method="DOP853", events=events, rtol=1e-12, atol=1e-15
        )

    events = [
        crossing(p, q)
        for a, b in network.paths.commodity_slices()
        for p in range(a, b)
        for q in range(p + 1, b)
    ]
    time, points = 0.0, []
    for offset in offsets:
        while time < offset:
            solution = solve(flow, time, offset, events or None)
            fired = [j for j, times in enumerate(solution.t_events or []) if len(times)]
            if fired:
                stop = solution.t_events[fired[0]][0]
                del events[fired[0]]
                if stop <= time:
                    continue
                solution = solve(flow, time, stop)
            time, flow = solution.t[-1], solution.y[:, -1]
        points.append(flow)
    return points
