"""The edge--path incidence matrix as a first-class evaluation object.

Every path-level quantity of the Wardrop model factors through the 0/1
incidence matrix ``A`` with ``A[e, p] = 1`` iff edge ``e`` lies on path
``p``: edge flows are ``A @ f``, path latencies are ``A.T @ l`` and the
batched engines apply the same two products row by row.  On the paper's toy
instances a dense ``A`` is perfectly fine, but on road networks with
hundreds of OD pairs the matrix is overwhelmingly sparse (a path touches a
handful of the edges), so :class:`SparseIncidence` stores both orientations
in CSR form and evaluates in ``O(nnz)``.

Both backends expose the same four products.  The dense backend performs
*exactly* the expressions the network historically inlined (``A @ x``,
``x @ A.T``, ``A.T @ v``, ``v @ A``), so existing instances keep their
bit-for-bit batch/scalar equivalence; the sparse backend accumulates each
row's nonzeros in one fixed index order for the scalar *and* the batched
product, so the two sparse paths also agree bit for bit with each other.

The sparse backend is built on ``scipy.sparse`` (a required dependency,
shared with the shortest-path oracle); the dense tier is kept for the small
instances whose products must stay bit-identical to the historical inline
arithmetic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from scipy import sparse as _sparse

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..wardrop.paths import EdgeKey, PathSet

# Auto mode switches to the sparse backend once the dense matrix would hold
# this many entries; small instances keep the historical dense arithmetic.
AUTO_SPARSE_THRESHOLD = 200_000

# CSR is the default tier at road-network sizes: auto mode also goes sparse
# once the network has this many edges, regardless of the current path count
# (column generation starts with few paths and grows -- picking the backend
# from the initial dense size would start road networks on the dense tier and
# re-tier them mid-run).  The bundled Sioux Falls fixture has 76 links.
AUTO_SPARSE_MIN_EDGES = 64


class EdgeIncidence:
    """Common interface of the dense and sparse incidence backends.

    ``shape`` is ``(num_edges, num_paths)``.  The four products are the only
    incidence arithmetic the library performs:

    * :meth:`edge_flows` / :meth:`edge_flows_batch` -- ``A @ f`` on a path
      flow vector ``(P,)`` or batch ``(B, P)``,
    * :meth:`path_totals` / :meth:`path_totals_batch` -- ``A.T @ v`` on an
      edge-value vector ``(E,)`` or batch ``(B, E)`` (posted latencies,
      gradient terms ...).
    """

    shape: tuple

    @property
    def num_edges(self) -> int:
        return self.shape[0]

    @property
    def num_paths(self) -> int:
        return self.shape[1]

    def edge_flows(self, path_flows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def edge_flows_batch(self, path_flows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def path_totals(self, edge_values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def path_totals_batch(self, edge_values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """Return (and cache) the dense ``(E, P)`` matrix."""
        raise NotImplementedError

    @property
    def nnz(self) -> int:
        """Number of (edge, path) memberships."""
        raise NotImplementedError


class DenseIncidence(EdgeIncidence):
    """The historical dense backend: plain BLAS products on a 0/1 array.

    Batched inputs are evaluated as one matrix-vector product per row rather
    than a single GEMM: the GEMM kernel may accumulate in a different order
    than the scalar GEMV and land one ulp away, which would break the
    row-wise bit-identity contract of the batched engines.  The dense tier
    only serves small networks (see :data:`AUTO_SPARSE_MIN_EDGES`), so the
    per-row loop costs nothing measurable.
    """

    def __init__(self, matrix: np.ndarray):
        self._matrix = np.asarray(matrix, dtype=float)
        self.shape = self._matrix.shape
        self._dense_view: Optional[np.ndarray] = None

    def edge_flows(self, path_flows: np.ndarray) -> np.ndarray:
        return self._matrix @ np.asarray(path_flows, dtype=float)

    def edge_flows_batch(self, path_flows: np.ndarray) -> np.ndarray:
        flows = np.asarray(path_flows, dtype=float)
        out = np.empty((flows.shape[0], self.shape[0]))
        for row in range(flows.shape[0]):
            out[row] = self._matrix @ flows[row]
        return out

    def path_totals(self, edge_values: np.ndarray) -> np.ndarray:
        return self._matrix.T @ np.asarray(edge_values, dtype=float)

    def path_totals_batch(self, edge_values: np.ndarray) -> np.ndarray:
        values = np.asarray(edge_values, dtype=float)
        out = np.empty((values.shape[0], self.shape[1]))
        for row in range(values.shape[0]):
            out[row] = self._matrix.T @ values[row]
        return out

    def dense(self) -> np.ndarray:
        # A read-only view: handing out the internal matrix itself would let
        # a caller's in-place edit corrupt every later product.
        if self._dense_view is None:
            view = self._matrix.view()
            view.setflags(write=False)
            self._dense_view = view
        return self._dense_view

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._matrix))

    def __repr__(self) -> str:
        return f"DenseIncidence(edges={self.shape[0]}, paths={self.shape[1]})"


class SparseIncidence(EdgeIncidence):
    """CSR incidence in both orientations, ``O(nnz)`` per product.

    The edge-major CSR drives the ``A @ f`` products and the path-major CSR
    the ``A.T @ v`` products; storing both avoids the implicit CSR->CSC
    transpose conversion scipy would otherwise perform per call.  Batched
    inputs are evaluated as ``(M @ X.T).T`` so each output row accumulates
    the same nonzeros in the same order as the scalar product -- the sparse
    scalar and batched paths therefore agree bit for bit.
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
        return self._by_edge @ np.asarray(path_flows, dtype=float)

    def edge_flows_batch(self, path_flows: np.ndarray) -> np.ndarray:
        flows = np.asarray(path_flows, dtype=float)
        return (self._by_edge @ flows.T).T

    def path_totals(self, edge_values: np.ndarray) -> np.ndarray:
        return self._by_path @ np.asarray(edge_values, dtype=float)

    def path_totals_batch(self, edge_values: np.ndarray) -> np.ndarray:
        values = np.asarray(edge_values, dtype=float)
        return (self._by_path @ values.T).T

    def dense(self) -> np.ndarray:
        # The cache is handed out read-only so callers cannot corrupt it (the
        # CSR operands themselves are never exposed).
        if self._dense_cache is None:
            cache = self._by_edge.toarray()
            cache.setflags(write=False)
            self._dense_cache = cache
        return self._dense_cache

    @property
    def nnz(self) -> int:
        return int(self._by_edge.nnz)

    def __repr__(self) -> str:
        return (
            f"SparseIncidence(edges={self.shape[0]}, paths={self.shape[1]}, "
            f"nnz={self.nnz})"
        )


def build_incidence(
    paths: "PathSet",
    edges: Sequence["EdgeKey"],
    mode: str = "auto",
) -> EdgeIncidence:
    """Build the incidence backend for a path set over a fixed edge order.

    ``mode`` is ``"dense"``, ``"sparse"`` or ``"auto"``.  Auto picks CSR
    whenever the instance is road-network sized --
    at least :data:`AUTO_SPARSE_MIN_EDGES` edges -- or the dense matrix
    would exceed :data:`AUTO_SPARSE_THRESHOLD` entries; the dense tier is
    the small-network special case.  Both backends consume the path set's
    shared :meth:`~repro.wardrop.paths.PathSet.edge_membership` map, so the
    membership scan over all paths runs exactly once.
    """
    if mode not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown incidence mode {mode!r}")
    num_paths = len(paths)
    membership: Dict = paths.edge_membership()
    rows: List[np.ndarray] = [
        membership.get(edge, np.zeros(0, dtype=np.int64)) for edge in edges
    ]
    if mode == "sparse" or (
        mode == "auto"
        and (
            len(edges) >= AUTO_SPARSE_MIN_EDGES
            or len(edges) * num_paths > AUTO_SPARSE_THRESHOLD
        )
    ):
        return SparseIncidence(rows, num_paths)
    matrix = np.zeros((len(edges), num_paths))
    for edge_index, indices in enumerate(rows):
        matrix[edge_index, indices] = 1.0
    return DenseIncidence(matrix)
