"""Domain types, validation, and label/indicator conversions shared by every solver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

# Column-orthonormality tolerance for embedded data (entrywise on U'U - I).
ORTHONORMAL_TOL = 1e-8
# Relative singular-value cutoff below which an input matrix counts as rank deficient.
RANK_TOL = 1e-10
# Rows per block in row-by-row passes over a matrix (normalizing rows,
# fixing column signs), so their temporaries stay O(block x columns) rather
# than the size of the matrix.
_ROW_BLOCK = 1024


class ClusteringError(Exception):
    """Invalid input or an infeasible request (the CLI's data error, exit code 3)."""


class NumericalError(ClusteringError):
    """A numerical failure: rank deficiency or a failed eigensolver (exit code 4)."""


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


def require_counts(minimum: int, **values) -> None:
    """Raise ValueError unless each value is an int or numpy integer (not a bool) >= `minimum`."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def require_positive(**values) -> None:
    """Raise ValueError unless each value is a real number (not a bool) with 0 < value < inf."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0 < value < np.inf:  # NaN fails it
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _integer_labels(labels) -> np.ndarray:
    """`labels` as a nonempty 1-D int array of cluster ids; else ClusteringError."""
    values = np.asarray(labels)
    if values.ndim != 1 or values.size == 0:
        raise ClusteringError("labels must be a nonempty 1-D sequence")
    if values.dtype.kind not in "biuf":  # bool, int, uint or float
        raise ClusteringError(f"labels must be integer ids, got dtype {values.dtype}")
    i = _first_non_id(values)
    if i is not None:
        raise ClusteringError(f"label {values[i]} at index {i} is not an integer id")
    return values.astype(int, copy=False)


def _first_non_id(values: np.ndarray) -> int | None:
    """Index of the first entry of 1-D real `values` not an integer in 0..2^63 - 1, or None."""
    if values.dtype.kind in "biu":  # two reductions, no copy or n-sized temporary
        if values.min() >= 0 and values.max() <= 2**63 - 1:
            return None
        bad = (values < 0) | (values > 2**63 - 1)
    else:  # NaN fails the range test; a float64 bound keeps float16 from overflowing
        bad = ~((values >= 0) & (values < np.float64(2.0**63))) | (values != np.trunc(values))
    return int(np.argmax(bad)) if bad.any() else None


def _fix_column_signs_in_place(m: np.ndarray) -> np.ndarray:
    """Flip the columns of the float array `m` in place so each column's first
    largest-magnitude entry is positive (a column whose largest is 0 keeps its
    sign, and one holding NaN becomes NaN); returns `m`. This makes SVD and
    eigenvector output deterministic across platforms up to LAPACK's result.

    Reads `m` by row blocks, so the temporaries are O(block x k), never n x k.
    """
    cols = np.arange(m.shape[1])
    top = np.full(m.shape[1], -1.0)  # |entry| >= 0, so the first block always wins
    pick = np.zeros(m.shape[1])
    for start in range(0, m.shape[0], _ROW_BLOCK):
        block = m[start : start + _ROW_BLOCK]
        magnitude = np.abs(block)
        idx = np.argmax(magnitude, axis=0)
        block_top = magnitude[idx, cols]
        # Strictly larger, so an earlier block keeps a tie; the first NaN wins.
        later = (block_top > top) | (np.isnan(block_top) & ~np.isnan(top))
        top[later] = block_top[later]
        pick[later] = block[idx[later], cols[later]]
    signs = np.sign(pick)
    signs[signs == 0] = 1.0
    m *= signs
    return m


def _qr_orthonormal(m: np.ndarray) -> np.ndarray:
    """The Q of a thin QR factorization of `m`, its column signs fixed so R's diagonal is >= 0."""
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


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
    """A partition of n objects into k nonempty clusters, stored as its labels and k.

    The labels are a nonempty 1-D sequence of integer ids in 0..k-1 using every
    id (else ClusteringError; ValueError unless k is an integer >= 1). They stand
    for the normalized n x k indicator H: 1/sqrt(n_j) at (i, `labels[i]`) for
    each row i of cluster j, zeros elsewhere. Those entries, `values`, are
    derived once and read-only. Products with H go through :func:`cluster_sums`,
    and `matrix` builds the dense H only when asked.
    """

    labels: np.ndarray
    k: int

    def __post_init__(self):
        require_counts(1, k=self.k)
        self.labels = _readonly(_integer_labels(self.labels), dtype=int)
        if self.labels.max() >= self.k:
            raise ClusteringError(f"labels must lie in 0..{self.k - 1}")
        sizes = self.cluster_sizes
        if not sizes.all():
            raise ClusteringError(f"cluster {int(np.argmin(sizes))} is empty")
        self.values = 1.0 / np.sqrt(sizes[self.labels])
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x k indicator, read-only, built anew on every access."""
        h = np.zeros((self.n, self.k))
        h[np.arange(self.n), self.labels] = self.values
        h.setflags(write=False)
        return h

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


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


@dataclass(eq=False)
class BinaryIndicator:
    """0/1 assignment matrix with exactly one 1 per row (columns may be empty)."""

    matrix: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.matrix = _readonly(self.matrix)
        self.labels = _readonly(_integer_labels(self.labels), dtype=int)
        n, k = self.matrix.shape
        if self.labels.shape != (n,):
            raise ValueError("labels length must match the row count")
        if not np.all((self.matrix == 0) | (self.matrix == 1)):
            raise ValueError("entries must be 0 or 1")
        if np.any(self.matrix.sum(axis=1) != 1):
            raise ValueError("each row must sum to exactly 1")
        if np.any(self.matrix[np.arange(n), self.labels] != 1):
            raise ValueError("labels must point at each row's 1 entry")


@dataclass
class SolverTrace:
    """Per-run iteration accounting.

    `objective_history` holds the per-iteration objective of the iterative
    phase (inner gap for the alternating-projection solver, per-sweep
    objectives for the baselines); `inner_iters_per_outer` gives the split
    into phases where applicable. Replicated solvers record the chosen
    replication and the per-replication objectives/histories.

    `stop_reasons` says why each iterative run ended: one entry per KindAP
    inner phase ("floor", "tol", "budget" or "cap"), one per spectral-rotation
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
        self.labels = _integer_labels(self.labels)
        if self.kind_objective is not None and not np.isfinite(self.kind_objective):
            raise ValueError("kind objective must be finite")
        if not np.isfinite(self.kmeans_objective) or self.kmeans_objective < 0:
            raise ValueError("k-means objective must be finite and nonnegative")


def make_indicator(labels, k: int) -> IndicatorMatrix:
    """``IndicatorMatrix(labels, k)``, under the name the solvers call and the benchmark traces."""
    return IndicatorMatrix(labels, k)


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
        NumericalError: the smallest singular value is below
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
    try:
        return EmbeddedData(m)
    except ValueError:  # shape and finiteness hold, so only its Gram test failed
        pass
    singular = np.linalg.svd(m, compute_uv=False)
    if singular[-1] < RANK_TOL * singular[0]:
        raise NumericalError(
            f"numerical rank < {d}: smallest singular value {singular[-1]:.3e}"
        )
    return EmbeddedData(_qr_orthonormal(m), orthonormalized=True)
