"""Large-network scenario layer: sparse evaluation and column generation.

The modules in this package let the stale-information dynamics run on
networks where exhaustively enumerating the path sets is impossible:

* :mod:`~repro.largescale.incidence` -- the edge--path incidence matrix as a
  first-class CSR operator with one product per direction, so latency
  evaluation, the Beckmann potential and duality gaps cost ``O(nnz)``
  instead of ``O(E * P)`` on every instance,
* :mod:`~repro.largescale.shortest` -- a Dijkstra shortest-path oracle over
  the *full* graph (first-thru-node aware) plus the all-or-nothing loader
  that classical traffic assignment is built on,
* :mod:`~repro.largescale.columns` -- :class:`ActivePathSet`, a restricted
  path set that grows by shortest-path column generation at bulletin-board
  refreshes (matching the paper's information model: agents can only
  discover routes when the board updates), and the column-generation
  simulator driving the rerouting dynamics on it,
* :mod:`~repro.largescale.batch_columns` -- the batched driver running B
  same-topology column-generation replicas as one ``(B, P)`` ensemble on
  the fluid engine against a shared oracle (union growth at every phase
  start, per-row eviction and per-row duality-gap certificates).

The TNTP instance loader lives in :mod:`repro.instances.tntp` and the
edge-flow Frank--Wolfe solver in :mod:`repro.solvers.edge_frank_wolfe`;
both build on the oracle and incidence layers here.

Attribute access is lazy (PEP 562): ``repro.wardrop.network`` imports the
incidence operator from here, and resolving the column-generation names
eagerly would close an import cycle back through ``repro.wardrop``.
"""

from __future__ import annotations

_EXPORTS = {
    "ActivePathSet": "columns",
    "ColumnGenerationResult": "columns",
    "simulate_with_column_generation": "columns",
    "BatchColumnGenerationResult": "batch_columns",
    "ColumnGenerationSimulator": "batch_columns",
    "simulate_with_column_generation_batch": "batch_columns",
    "EdgeIncidence": "incidence",
    "build_incidence": "incidence",
    "ShortestPathOracle": "shortest",
    "AllOrNothingLoad": "shortest",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)


def __dir__():
    return __all__
