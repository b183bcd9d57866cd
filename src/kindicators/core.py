"""Domain types, validation, and label/indicator conversions shared by every solver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

# Column-orthonormality tolerance for embedded data (entrywise on U'U - I).
ORTHONORMAL_TOL = 1e-8
# Tighter tolerance for indicator column norms, which are exact by construction.
INDICATOR_TOL = 1e-10
# Relative singular-value cutoff below which an input matrix counts as rank deficient.
RANK_TOL = 1e-10


class ClusteringError(Exception):
    """Base class for errors raised by this package."""


class BadLabelError(ClusteringError):
    """A label id is negative or >= k."""


class EmptyClusterError(ClusteringError):
    """A cluster id in 0..k-1 received no objects."""

    def __init__(self, cluster: int, message: str | None = None):
        self.cluster = int(cluster)
        super().__init__(message or f"cluster {self.cluster} is empty")


class RankDeficientError(ClusteringError):
    """The input matrix is numerically rank deficient."""


class InfeasibleKError(ClusteringError):
    """Fewer objects than requested clusters."""


class AllZeroRowError(ClusteringError):
    """Rounding repair could not give every cluster a member (only possible when n < k)."""


class IsolatedVertexError(ClusteringError):
    """A graph vertex has zero degree."""

    def __init__(self, vertex: int):
        self.vertex = int(vertex)
        super().__init__(f"vertex {self.vertex} is isolated (degree 0)")


class EigSolverError(ClusteringError):
    """The symmetric eigendecomposition failed."""


class LengthMismatchError(ClusteringError):
    """Two label sequences have different lengths."""


def _readonly(values, dtype=float) -> np.ndarray:
    """`values` as a read-only array of `dtype` that shares no writable memory.

    A read-only ndarray of that dtype which owns its data is returned as is;
    anything else is copied.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and values.base is None
        and not values.flags.writeable
    ):
        return values
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def require_integers(**values) -> None:
    """Raise ValueError unless each value is an int or a numpy integer (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def fix_column_signs(matrix: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Makes orthonormal factors (SVD/eigenvector output) deterministic across
    platforms up to the underlying LAPACK result.
    """
    m = np.array(matrix, dtype=float)
    idx = np.argmax(np.abs(m), axis=0)
    signs = np.sign(m[idx, np.arange(m.shape[1])])
    signs[signs == 0] = 1.0
    m *= signs
    return m


@dataclass(eq=False)
class EmbeddedData:
    """Column-orthonormal feature matrix; rows are objects, columns span the embedding.

    `orthonormalized` is True when :func:`validate_embedding` had to correct the
    input columns, so callers can report the fix.
    """

    matrix: np.ndarray
    orthonormalized: bool = False

    def __post_init__(self):
        self.matrix = _readonly(self.matrix)
        if self.matrix.ndim != 2:
            raise ValueError("embedded data must be a 2-D matrix")
        n, k = self.matrix.shape
        if not n >= k >= 2:
            raise ValueError(f"need n >= k >= 2, got shape {n}x{k}")
        gram = self.matrix.T @ self.matrix
        if not np.max(np.abs(gram - np.eye(k))) <= ORTHONORMAL_TOL:  # NaN fails it
            raise ValueError("columns are not orthonormal; use validate_embedding")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


@dataclass(eq=False)
class IndicatorMatrix:
    """A partition of n objects into k nonempty clusters, with one positive weight per object.

    Stands for the n x k indicator H with `values[i]` at (i, `labels[i]`) and
    zeros elsewhere, whose columns have unit norm. Only the labels and the
    values are stored; k is the largest label plus one, since every cluster
    is nonempty. Products with H go through :func:`cluster_sums`, and
    `matrix` builds the dense H only when asked.
    """

    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.labels = _readonly(self.labels, dtype=int)
        self.values = _readonly(self.values)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise BadLabelError("labels must be a nonempty 1-D sequence")
        if self.values.shape != self.labels.shape:
            raise ValueError("values length must match the labels length")
        if self.labels.min() < 0:
            raise BadLabelError("labels must be nonnegative")
        if not np.all(self.values > 0):
            raise ValueError("indicator values must be positive")
        empty = np.flatnonzero(self.cluster_sizes == 0)
        if empty.size:
            raise EmptyClusterError(empty[0])
        norms = np.bincount(self.labels, weights=self.values**2)
        if np.max(np.abs(norms - 1.0)) > INDICATOR_TOL:
            raise ValueError("indicator columns must have unit norm")

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def k(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x k indicator, read-only, built anew on every access."""
        h = np.zeros((self.n, self.k))
        h[np.arange(self.n), self.labels] = self.values
        h.setflags(write=False)
        return h

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels)


@dataclass(eq=False)
class RelaxedAssignment:
    """Box-constrained assignment matrix: every entry in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _readonly(self.matrix)
        if self.matrix.ndim != 2:
            raise ValueError("relaxed assignment must be a 2-D matrix")
        # NaN fails both comparisons; `initial` keeps an empty matrix valid.
        if not (self.matrix.min(initial=0) >= 0 and self.matrix.max(initial=1) <= 1):
            raise ValueError("relaxed assignment entries must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


@dataclass(eq=False)
class BinaryIndicator:
    """0/1 assignment matrix with exactly one 1 per row (columns may be empty)."""

    matrix: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.matrix = _readonly(self.matrix)
        self.labels = _readonly(self.labels, dtype=int)
        n, k = self.matrix.shape
        if self.labels.shape != (n,):
            raise ValueError("labels length must match the row count")
        if not np.all((self.matrix == 0) | (self.matrix == 1)):
            raise ValueError("entries must be 0 or 1")
        if np.any(self.matrix.sum(axis=1) != 1):
            raise ValueError("each row must sum to exactly 1")
        if np.any(self.matrix[np.arange(n), self.labels] != 1):
            raise ValueError("labels must point at each row's 1 entry")

    @classmethod
    def from_labels(cls, labels, k: int) -> "BinaryIndicator":
        labels = np.asarray(labels, dtype=int)
        if labels.min() < 0 or labels.max() >= k:
            raise BadLabelError(f"labels must lie in 0..{k - 1}")
        b = np.zeros((labels.size, k))
        b[np.arange(labels.size), labels] = 1.0
        return cls(b, labels)


@dataclass
class SolverTrace:
    """Per-run iteration accounting.

    `objective_history` holds the per-iteration objective of the iterative
    phase (inner gap for the alternating-projection solver, per-sweep
    objectives for the baselines); `inner_iters_per_outer` gives the split
    into phases where applicable. Replicated solvers record the chosen
    replication and the per-replication objectives/histories.

    `stop_reasons` says why each iterative run ended: one entry per KindAP
    inner phase ("tol", "budget" or "cap"), one per spectral-rotation
    replication ("floor", "tol", "cap" or "uphill") and one per Lloyd run
    or k-means replication ("tol" or "cap"). `outer_stop_reason`
    says why KindAP's outer loop ended ("floor", "tol", or "cap" when it
    ran all `max_outer` phases without reaching the floor).
    """

    outer_iters: int = 0
    inner_iters_per_outer: list[int] = field(default_factory=list)
    objective_history: list[float] = field(default_factory=list)
    outer_objective_history: list[float] = field(default_factory=list)
    replication_index: int | None = None
    replication_objectives: list[float] = field(default_factory=list)
    replication_histories: list[list[float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    stop_reasons: list[str] = field(default_factory=list)
    outer_stop_reason: str | None = None


@dataclass(eq=False)
class ClusterResult:
    """Labels plus the objective values and trace of the run that produced them.

    `kind_objective` is the squared subspace distance between the data range and
    the (normalized) indicator range; it is None when the input data is not
    column-orthonormal so the value would be meaningless. `relaxed` carries the
    final box-constrained assignment for solvers that produce one.
    """

    labels: np.ndarray
    kind_objective: float | None
    kmeans_objective: float
    relaxed: RelaxedAssignment | None = None
    trace: SolverTrace = field(default_factory=SolverTrace)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.min(initial=0) < 0:
            raise BadLabelError("labels must be nonnegative")
        if self.kind_objective is not None and not np.isfinite(self.kind_objective):
            raise ValueError("kind objective must be finite")
        if not np.isfinite(self.kmeans_objective) or self.kmeans_objective < 0:
            raise ValueError("k-means objective must be finite and nonnegative")


def make_indicator(labels, k: int) -> IndicatorMatrix:
    """The normalized indicator of integer labels: value 1/sqrt(n_j) in every row of cluster j.

    Each column then has unit norm with equal weights. Costs O(n); no n x k
    array is built.

    Args:
        labels: length-n sequence of cluster ids in 0..k-1; every cluster must
            be nonempty.
        k: number of clusters.

    Raises:
        BadLabelError: some id is negative or >= k.
        EmptyClusterError: some cluster id in 0..k-1 is unused.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1 or labels.size == 0:
        raise BadLabelError("labels must be a nonempty 1-D sequence")
    if labels.min() < 0 or labels.max() >= k:
        raise BadLabelError(f"labels must lie in 0..{k - 1}")
    sizes = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise EmptyClusterError(empty[0])
    return IndicatorMatrix(labels, 1.0 / np.sqrt(sizes[labels]))


def cluster_sums(x: np.ndarray, labels: np.ndarray, k: int, weights=None) -> np.ndarray:
    """Per-cluster (weighted) sums of the rows of `x`: the k x d product H'x.

    H holds `weights[i]` (default 1) at (i, labels[i]); for an indicator H
    and an embedding U this is S = H'U, the transpose of U'H. A k x n
    coordinate-format H' times `x` adds the rows in index order: the same
    bits as ``np.add.at(sums, labels, weights[:, None] * x)``.
    """
    n = labels.size
    data = np.ones(n) if weights is None else weights
    return sparse.coo_array((data, (labels, np.arange(n))), shape=(k, n)) @ x


def validate_embedding(matrix) -> EmbeddedData:
    """Check or repair a data matrix so its columns are orthonormal.

    Inputs that are already column-orthonormal (within ORTHONORMAL_TOL) pass
    through unchanged. Anything else is orthonormalized by a thin QR
    factorization with the positive-diagonal sign convention, and the returned
    EmbeddedData reports `orthonormalized=True`.

    Raises:
        RankDeficientError: the smallest singular value is below
            RANK_TOL times the largest.
        ValueError: the shape does not satisfy n >= d >= 2.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("embedding input must be a 2-D matrix")
    n, d = m.shape
    if not n >= d >= 2:
        raise ValueError(f"need n >= d >= 2, got shape {n}x{d}")
    if not np.all(np.isfinite(m)):
        raise ValueError("embedding input must be finite")
    # A Gram within ORTHONORMAL_TOL of I bounds sigma_min^2 below by
    # 1 - d * ORTHONORMAL_TOL, so only inputs that fail it need the rank test.
    gram = m.T @ m
    if np.max(np.abs(gram - np.eye(d))) <= ORTHONORMAL_TOL:
        return EmbeddedData(m)
    singular = np.linalg.svd(m, compute_uv=False)
    if singular[-1] < RANK_TOL * singular[0]:
        raise RankDeficientError(
            f"numerical rank < {d}: smallest singular value {singular[-1]:.3e}"
        )
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return EmbeddedData(q * signs, orthonormalized=True)
