"""Spectral-embedding front end: sparse kNN similarity graph and normalized-Laplacian eigenvectors.

No step forms an n x n array. `knn_graph` computes squared distances one
block of rows at a time, with the block height chosen so that one distance
tile holds at most TILE_ENTRIES floats, and selects each row's neighbors in
chunks of the tile's rows: memory is the one tile, O(chunk * n) selection
temporaries, the block x d scaled copy of the data and O(n * knn) for the
neighbors. `spectral_embed` reads the Laplacian's null space off the graph's
connected components, exactly, and asks an eigensolver only for the
eigenvectors beyond it: O(nnz + n * k) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .core import (
    ClusteringError,
    EmbeddedData,
    NumericalError,
    _fix_column_signs_in_place,
    require_counts,
    validate_embedding,
)

WEIGHT_SCHEMES = ("binary", "gaussian")
# Largest distance tile knn_graph holds at once: 4M float64 entries, 32 MB.
# It is the only tile-sized array: neighbor selection reads it in chunks of
# a sixteenth of its rows.
TILE_ENTRIES = 1 << 22
# Smallest Lanczos basis handed to ARPACK, which is otherwise twice the
# wanted pairs plus one. When the complement of the null space is no larger
# than the basis, the graph is too small for ARPACK and the deflated problem
# is solved densely.
MIN_LANCZOS_VECTORS = 20
# Seed of the start vector the Lanczos iteration begins from.
LANCZOS_SEED = 0


@dataclass(eq=False)
class SimilarityGraph:
    """Symmetric nonnegative weight matrix with zero diagonal, stored as CSR.

    `matrix` accepts a scipy sparse matrix or any dense array-like; it is kept
    as a read-only `scipy.sparse.csr_array` with sorted indices and no explicit
    zeros, so its stored entries are exactly the graph's edges.
    """

    matrix: sparse.csr_array

    def __post_init__(self):
        w = sparse.csr_array(self.matrix, dtype=float, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        w.sum_duplicates()
        w.eliminate_zeros()
        if not np.all(np.isfinite(w.data)):
            raise ValueError("weights must be finite")
        if np.any(w.data < 0):
            raise ValueError("weights must be nonnegative")
        if np.any((w - w.T).data != 0):
            raise ValueError("weights must be symmetric")
        if np.any(w.diagonal() != 0):
            raise ValueError("diagonal must be zero")
        for part in (w.data, w.indices, w.indptr):
            part.setflags(write=False)
        self.matrix = w

    @property
    def weights(self) -> np.ndarray:
        """Read-only dense n x n view of the weights: O(n^2) memory, for small graphs and tests."""
        dense = self.matrix.toarray()
        dense.setflags(write=False)
        return dense

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """Connected-component count and read-only per-vertex component ids.

        Components are numbered in the order of their smallest vertex.
        """
        count, labels = connected_components(self.matrix, directed=False)
        _, first_vertex = np.unique(labels, return_index=True)
        rank = np.empty(count, dtype=int)
        rank[np.argsort(first_vertex)] = np.arange(count)
        ids = rank[labels]
        ids.setflags(write=False)
        return count, ids


def _nearest(d2: np.ndarray, first: int, sq_norms: np.ndarray, knn: int):
    """Each row's `knn` nearest columns and their squared distances, ordered by (distance, index).

    `d2` holds -2 x_i x' for the rows i = first, first + 1, ... and is
    completed in place to squared distances, with the row's own column set
    to infinity. Every step works row by row, so the result does not depend
    on how the rows are chunked.
    """
    rows = np.arange(d2.shape[0])
    d2 += sq_norms[first : first + rows.size, None]
    d2 += sq_norms[None, :]
    np.maximum(d2, 0.0, out=d2)
    d2[rows, first + rows] = np.inf
    # The knn + 1 smallest of each row, the largest of them last. A row
    # whose (knn + 1)-th distance equals its knn-th has ties across the
    # cut, so it takes every candidate at or below that distance.
    part = np.argpartition(d2, knn, axis=1)[:, : knn + 1]
    part_d2 = np.take_along_axis(d2, part, axis=1)
    kth = part_d2[:, :knn].max(axis=1)
    tied = part_d2[:, knn] == kth
    tied_row, tied_col = np.nonzero(d2[tied] <= kth[tied, None])
    row = np.concatenate([np.repeat(rows[~tied], knn), rows[tied][tied_row]])
    col = np.concatenate([part[~tied, :knn].ravel(), tied_col])
    dist = d2[row, col]
    # Order by (row, distance, index) and keep each row's first knn.
    order = np.lexsort((col, dist, row))
    first_of_row = np.searchsorted(row[order], rows)
    keep = order[(first_of_row[:, None] + np.arange(knn)).ravel()]
    return col[keep].reshape(-1, knn), dist[keep].reshape(-1, knn)


def knn_graph(data, knn: int, weight: str = "binary") -> SimilarityGraph:
    """Symmetrized k-nearest-neighbor graph under Euclidean distance.

    An edge connects i and j when either is among the other's `knn` nearest
    neighbors (self excluded; distance ties resolved toward the lower index).
    The default weight is 0/1; "gaussian" rescales edges by
    exp(-d^2 / (2 h^2)) with bandwidth h equal to the median neighbor
    distance.

    Cost: O(n^2 d) time in blocked GEMMs. Memory is one distance tile of
    block x n <= TILE_ENTRIES floats, plus O(chunk * n) selection temporaries
    (chunk = block / 16 rows), plus the block x d scaled copy of the data,
    plus O(n * knn) for the neighbors.

    Raises ClusteringError when a squared row norm exceeds a quarter of the
    largest float (squared distances would overflow), and for "gaussian"
    weights when the median neighbor distance is 0 (mostly duplicate rows).
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    n = x.shape[0]
    require_counts(1, knn=knn)
    if knn >= n:
        raise ValueError(f"need 1 <= knn < n, got knn={knn}, n={n}")
    if weight not in WEIGHT_SCHEMES:
        raise ValueError(f"weight must be one of {WEIGHT_SCHEMES}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data must be finite")
    sq_norms = np.einsum("ij,ij->i", x, x)
    # A squared distance is at most 4 max ||x_i||^2, so this bound keeps
    # every distance finite.
    if np.any(sq_norms > np.finfo(float).max / 4):
        raise ClusteringError(
            "data too large in magnitude: a squared row norm exceeds 1/4 of the "
            "largest float, so distances would overflow; rescale the data"
        )
    block = max(1, TILE_ENTRIES // n)
    # Selection reads the tile in chunks, so its temporaries are O(chunk * n).
    chunk = max(1, block // 16)
    neighbors = np.empty((n, knn), dtype=np.intp)
    neighbor_d2 = np.empty((n, knn))
    tile = np.empty((min(block, n), n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        # Scaling an operand by -2 is exact, so this is bitwise -2 x_B x'.
        np.matmul(-2.0 * x[start:stop], x.T, out=tile[: stop - start])
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            neighbors[lo:hi], neighbor_d2[lo:hi] = _nearest(
                tile[lo - start : hi - start], lo, sq_norms, knn
            )
    if weight == "gaussian":
        bandwidth = float(np.median(np.sqrt(neighbor_d2)))
        scale = 2.0 * bandwidth**2
        if scale == 0.0:
            raise ClusteringError(
                f"gaussian weights need a positive bandwidth, but the median neighbor "
                f"distance is {bandwidth:g} (duplicate rows); use --weight binary"
            )
        values = np.exp(-neighbor_d2.ravel() / scale)
    else:
        values = np.ones(n * knn)
    directed = sparse.csr_array(
        (values, (np.repeat(np.arange(n), knn), neighbors.ravel())), shape=(n, n)
    )
    return SimilarityGraph(directed.maximum(directed.T))


def _null_space(sqrt_degrees: np.ndarray, labels: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal columns sqrt(deg) * 1_C / ||.|| for components C = 0..count-1."""
    members = np.flatnonzero(labels < count)
    null = np.zeros((labels.size, count))
    null[members, labels[members]] = sqrt_degrees[members]
    return null / np.linalg.norm(null, axis=0)


def _complement_eigenvectors(w, inv_sqrt: np.ndarray, null: np.ndarray, wanted: int) -> np.ndarray:
    """Top `wanted` eigenvectors of D^-1/2 W D^-1/2 orthogonal to the null space.

    Works on the deflated, shifted operator P (M + 2I) P with P = I - Q Q'.
    On the complement of Q its eigenvalues lie in [1, 3]; Q itself maps to
    0, so a largest-first solver never returns a null direction.
    """
    n, known = null.shape

    def apply(v):
        v = v.reshape(n, -1)
        v = v - null @ (null.T @ v)
        out = inv_sqrt[:, None] * (w @ (inv_sqrt[:, None] * v)) + 2.0 * v
        return out - null @ (null.T @ out)

    lanczos = max(2 * wanted + 1, MIN_LANCZOS_VECTORS)
    # Every component has two or more vertices, so known <= n / 2 and the
    # dense branch runs only for n <= max(2 * MIN_LANCZOS_VECTORS, 2k + 1).
    if lanczos >= n - known:
        operator = apply(np.eye(n))
        try:
            _, vectors = np.linalg.eigh(0.5 * (operator + operator.T))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        return vectors[:, ::-1][:, :wanted]
    start = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    start -= null @ (null.T @ start)
    operator = LinearOperator((n, n), matvec=apply, dtype=float)
    try:
        values, vectors = eigsh(operator, k=wanted, which="LA", v0=start, ncv=lanczos)
    except ArpackError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return vectors[:, np.argsort(-values, kind="stable")]


def spectral_embed(graph: SimilarityGraph, k: int, row_normalize: bool = False) -> EmbeddedData:
    """Eigenvectors of the k smallest eigenvalues of the symmetric normalized Laplacian.

    For L = I - D^(-1/2) W D^(-1/2) the eigenvalue 0 has one eigenvector
    sqrt(deg) * 1_C per connected component C; these come first, normalized
    and ordered by each component's smallest vertex. When the graph has
    c < k components, the other k - c columns are the next eigenvectors of L,
    computed on the operator with the null space deflated (Lanczos, or a
    dense solve when the graph is too small for it) with a deterministic
    column-sign convention. When c > k, the bottom-k eigenspace is not unique
    and the first k components are used.

    With `row_normalize`, rows are rescaled to unit norm and the columns
    re-orthonormalized. The output always satisfies the embedded-data
    contract.

    Raises ClusteringError for zero-degree vertices and NumericalError if
    the eigensolver fails.
    """
    w = graph.matrix
    n = w.shape[0]
    require_counts(2, k=k)
    if k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    degrees = w.sum(axis=1)
    isolated = np.flatnonzero(degrees <= 0)
    if isolated.size:
        raise ClusteringError(f"vertex {int(isolated[0])} is isolated (degree 0)")
    sqrt_degrees = np.sqrt(degrees)
    count, labels = graph.components
    u = _null_space(sqrt_degrees, labels, min(count, k))
    if count < k:
        rest = _complement_eigenvectors(w, 1.0 / sqrt_degrees, u, k - count)
        u = np.hstack([u, _fix_column_signs_in_place(rest)])
    if row_normalize:
        norms = np.linalg.norm(u, axis=1)
        u = u / np.maximum(norms, np.finfo(float).tiny)[:, None]
    return validate_embedding(u)
