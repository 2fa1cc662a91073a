"""The edge--path incidence matrix as a first-class evaluation object.

Every path-level quantity of the Wardrop model factors through the 0/1
incidence matrix ``A`` with ``A[e, p] = 1`` iff edge ``e`` lies on path
``p``: edge flows are ``A @ f`` and path latencies are ``A.T @ l``.  A path
touches a handful of the edges, so :class:`EdgeIncidence` stores ``A`` in
CSR form in both orientations and evaluates each product in ``O(nnz)`` on
every instance, from Pigou's two links to a road network.

Each product takes one row or a stack of rows ``(..., N)``: each row of a
stacked product accumulates the same nonzeros in the same order as the
one-row product, so the two agree bit for bit, and stacked results are
C-contiguous like every other ``(B, ...)`` array of the engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from scipy import sparse as _sparse

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..wardrop.paths import EdgeKey, PathSet


def _product(matrix: _sparse.csr_matrix, operand: np.ndarray) -> np.ndarray:
    """Apply a CSR matrix to a vector or to every row of a ``(..., N)`` stack."""
    operand = np.asarray(operand, dtype=float)
    if operand.ndim == 1:
        return matrix @ operand
    rows = operand.reshape(-1, operand.shape[-1])
    # ``(M @ X.T).T`` is F-ordered; BLAS products downstream pick their
    # kernel by layout, so the rows are handed out C-contiguous.
    product = np.ascontiguousarray((matrix @ rows.T).T)
    return product.reshape(operand.shape[:-1] + (matrix.shape[0],))


class EdgeIncidence:
    """CSR incidence in both orientations, ``O(nnz)`` per product.

    ``shape`` is ``(num_edges, num_paths)``.  The edge-major CSR drives
    :meth:`edge_flows` (``A @ f``) and the path-major CSR drives
    :meth:`path_totals` (``A.T @ v``); storing both avoids the CSR->CSC
    conversion scipy would otherwise perform per call.  These two products
    are the only incidence arithmetic the library performs.
    """

    def __init__(self, membership_rows: Sequence[np.ndarray], num_paths: int):
        indptr = np.zeros(len(membership_rows) + 1, dtype=np.int64)
        counts = [len(indices) for indices in membership_rows]
        np.cumsum(counts, out=indptr[1:])
        indices = (
            np.concatenate([np.asarray(row, dtype=np.int64) for row in membership_rows])
            if membership_rows and indptr[-1] > 0
            else np.zeros(0, dtype=np.int64)
        )
        data = np.ones(len(indices), dtype=float)
        self.shape = (len(membership_rows), int(num_paths))
        self._by_edge = _sparse.csr_matrix((data, indices, indptr), shape=self.shape)
        self._by_path = self._by_edge.T.tocsr()
        self._dense_cache: np.ndarray = None

    def edge_flows(self, path_flows: np.ndarray) -> np.ndarray:
        """``A @ f`` on path flows ``(P,)`` or ``(..., P)``."""
        return _product(self._by_edge, path_flows)

    def path_totals(self, edge_values: np.ndarray) -> np.ndarray:
        """``A.T @ v`` on edge values ``(E,)`` or ``(..., E)`` (latencies, slopes ...)."""
        return _product(self._by_path, edge_values)

    def dense(self) -> np.ndarray:
        """Return (and cache) the dense ``(E, P)`` matrix, read-only."""
        # The cache is handed out read-only so callers cannot corrupt it (the
        # CSR operands themselves are never exposed).
        if self._dense_cache is None:
            cache = self._by_edge.toarray()
            cache.setflags(write=False)
            self._dense_cache = cache
        return self._dense_cache

    @property
    def nnz(self) -> int:
        """Number of (edge, path) memberships."""
        return int(self._by_edge.nnz)

    def __repr__(self) -> str:
        return (
            f"EdgeIncidence(edges={self.shape[0]}, paths={self.shape[1]}, "
            f"nnz={self.nnz})"
        )


def build_incidence(paths: "PathSet", edges: Sequence["EdgeKey"]) -> EdgeIncidence:
    """Build the incidence operator of a path set over a fixed edge order.

    Consumes the path set's shared
    :meth:`~repro.wardrop.paths.PathSet.edge_membership` map, so the
    membership scan over all paths runs exactly once.
    """
    membership: Dict = paths.edge_membership()
    rows: List[np.ndarray] = [
        membership.get(edge, np.zeros(0, dtype=np.int64)) for edge in edges
    ]
    return EdgeIncidence(rows, len(paths))
