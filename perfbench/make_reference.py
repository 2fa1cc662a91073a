"""Regenerate ``reference/sf_incident.npz``, the stored sf-incident reference.

Runs one stale incident row for every possible incident start (whole update
periods from ``START_FIRST`` to ``START_LAST``) and stores each row's final
path flows keyed by path node sequence.  Rows of a batched run are
independent, so the workload's rows can be checked against these whatever
the seed picked.  Regenerate only when a change is meant to alter the
dynamics' results:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    network, incident_edge, alpha = workloads.incident_network()
    steps = np.arange(workloads.START_FIRST, workloads.START_LAST + 1)
    result = workloads.run_incident_rows(
        network,
        workloads.incident_policy(alpha),
        workloads.incident_scenarios(incident_edge, steps),
    )
    finals = np.stack([result.final_flow(row).values() for row in range(len(steps))])
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    np.savez_compressed(
        workloads.INCIDENT_REFERENCE,
        paths=np.array([workloads.path_key(path) for path in network.paths]),
        start_steps=steps,
        final_flows=finals,
    )
    print(f"wrote {len(steps)} reference rows over {network.num_paths} paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
