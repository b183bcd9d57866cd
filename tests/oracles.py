"""Brute-force reference implementations for tiny instances.

Test-only surface: these enumerate partitions or sample rotations
exhaustively, so they stay out of the installed package and are capped at
sizes where exponential work is still instant. `reference_kindap_solve`
keeps the KindAP loop in its first, allocate-every-iteration form, as the
path the production kernel must reproduce. `reference_procrustes_rotation`
keeps the Procrustes step as one SVD; the KindAP and spectral-rotation
references call it, so they never take the eigendecomposition route of the
`procrustes_rotation` they gate. `dense_knn_graph`,
`dense_spectral_embed` and `laplacian_eigenvalues` keep the spectral front
end in its first, dense n x n form (full distance matrix, stable argsort,
full `eigh`), as the path the sparse front end is gated against.
`reference_squared_distances`, `reference_kmeans_pp_init`,
`reference_sr_once` and `reference_generate` keep the baselines' distance,
seeding and rotation loops and the synthetic generator in their first,
temporary-per-step form, as the paths the lean versions are gated against.
`reference_lloyd_solve` keeps Lloyd's iteration with its own farthest-point
seizure for empty clusters and its own kind-objective formula, as the path
the shared `repair_empty_columns` and `kind_objective` are gated against.
`DenseIndicator`, `reference_make_indicator`, `reference_round_to_indicator`
and `reference_kind_objective` keep the indicator in its first, dense and
Gram-validated n x k form, with every U'H product a GEMM, as the arithmetic
that the label-and-weight indicator and `cluster_sums` are gated against.
`reference_accuracy` keeps accuracy on a dense confusion matrix, as the
score the sparse assignment is gated against. `reference_write_matrix_csv`
and `reference_write_labels_csv` keep the matrix CSV writer's one f-string
per cell and the label writer's one f-string per label, as the bytes the
row-at-a-time writer is gated against. `reference_fix_column_signs` keeps
the sign convention as one dense argmax per column, independent of the
block-by-block `_fix_column_signs_in_place`; `dense_spectral_embed`,
`reference_generate` and `gaussian_blobs` take their signs from it.
`gaussian_blobs` is a harder test family than `generate`: Gaussian clusters
whose spread makes k-means miss, for gates that must show a solver change
does no harm. `subspace_distance` and `projection_distance` are the model's
two distances between ranges, from k x k products; the solver never calls
them, and the tests hold its objectives and the metric properties to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from kindicators.baselines import KmeansParams
from scipy.optimize import linear_sum_assignment

from kindicators.core import (
    ORTHONORMAL_TOL,
    BinaryIndicator,
    ClusteringError,
    ClusterResult,
    EmbeddedData,
    NumericalError,
    RelaxedAssignment,
    SolverTrace,
    _readonly,
    cluster_sums,
    validate_embedding,
)
from kindicators.embedding import WEIGHT_SCHEMES, SimilarityGraph
from kindicators.evaluation import kmeans_objective
from kindicators.kindap import (
    OBJECTIVE_FLOOR,
    KindapParams,
    repair_empty_columns,
)
from kindicators.projections import DEGENERATE_SV_TOL, RotatedBasis
from kindicators.synthgen import SynthDataset

MAX_N = 12
MAX_K = 4

KIND = "kind"
KMEANS = "kmeans"
SR = "sr"


class TooLargeError(Exception):
    """Instance exceeds the enumeration caps."""


def _check_caps(n: int, k: int) -> None:
    if n > MAX_N or k > MAX_K:
        raise TooLargeError(f"enumeration capped at n <= {MAX_N}, k <= {MAX_K}")


def surjective_assignments(n: int, k: int):
    """All label tuples of length n using every id in 0..k-1 at least once."""
    _check_caps(n, k)
    for labels in product(range(k), repeat=n):
        if len(set(labels)) == k:
            yield labels


def canonical_partitions(n: int, k: int):
    """Surjective assignments deduplicated up to relabeling.

    Generated as restricted growth strings (labels[0] = 0 and each new label
    is at most one past the running maximum), which enumerates each partition
    exactly once in first-occurrence order.
    """
    _check_caps(n, k)

    def extend(prefix: list[int], top: int):
        if len(prefix) == n:
            if top == k - 1:
                yield tuple(prefix)
            return
        remaining = n - len(prefix)
        for label in range(min(top + 1, k - 1) + 1):
            new_top = max(top, label)
            if k - 1 - new_top > remaining - 1:
                continue  # not enough rows left to reach k distinct labels
            prefix.append(label)
            yield from extend(prefix, new_top)
            prefix.pop()

    yield from extend([0], 0)


def _normalized_indicator(labels: np.ndarray, k: int) -> np.ndarray:
    sizes = np.bincount(labels, minlength=k)
    h = np.zeros((labels.size, k))
    h[np.arange(labels.size), labels] = 1.0 / np.sqrt(sizes[labels])
    return h


def _kind_value(x: np.ndarray, labels: np.ndarray, k: int) -> float:
    sigma = np.linalg.svd(x.T @ _normalized_indicator(labels, k), compute_uv=False)
    return max(2.0 * k - 2.0 * float(sigma.sum()), 0.0)


def _kmeans_value(x: np.ndarray, labels: np.ndarray, k: int) -> float:
    # Within-cluster sum of squares computed the direct centroid way.
    total = 0.0
    for j in range(k):
        members = x[labels == j]
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def _sr_value(x: np.ndarray, labels: np.ndarray, k: int) -> float:
    b = np.zeros((labels.size, k))
    b[np.arange(labels.size), labels] = 1.0
    p, _, qt = np.linalg.svd(x.T @ b)
    rotation = p @ qt
    return float(((x @ rotation - b) ** 2).sum())


_OBJECTIVES = {KIND: _kind_value, KMEANS: _kmeans_value, SR: _sr_value}


def exhaustive_best(matrix, k: int, objective: str) -> tuple[np.ndarray, float]:
    """Globally best labeling by enumerating every partition.

    `objective` is "kind" (squared subspace distance to the normalized
    indicator range), "kmeans" (within-cluster sum of squares), or "sr"
    (binary-indicator rotation fit with the per-partition optimal rotation).
    Ties keep the first partition in canonical order.
    """
    x = np.asarray(matrix, dtype=float)
    n = x.shape[0]
    _check_caps(n, k)
    value_of = _OBJECTIVES[objective]
    best_value = np.inf
    best_labels = None
    for labels in canonical_partitions(n, k):
        arr = np.asarray(labels, dtype=int)
        value = value_of(x, arr, k)
        if value < best_value:
            best_value = value
            best_labels = arr
    assert best_labels is not None
    return best_labels, float(best_value)


def reference_fix_column_signs(matrix) -> np.ndarray:
    """A copy of `matrix` with each column multiplied by the sign of its entry
    at the column's argmax of |matrix| (1 where that entry is 0), from one
    dense argmax over the whole column."""
    m = np.array(matrix, dtype=float)
    signs = np.sign(m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])])
    signs[signs == 0] = 1.0
    return m * signs


def random_orthonormal(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random n x k orthonormal matrix (QR of a Gaussian, sign-fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_orthogonal_batch(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` random orthogonal k x k matrices."""
    q, r = np.linalg.qr(rng.standard_normal((count, k, k)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2)).copy()
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def sampled_rotation_min(basis_matrix, target, samples: int, rng: np.random.Generator) -> float:
    """Min of ||B R - target||_F over `samples` random orthogonal rotations.

    An upper-bound certificate for the closed-form Procrustes solution: the
    closed form must never exceed this value.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    b = np.asarray(basis_matrix, dtype=float)
    t = np.asarray(target, dtype=float)
    rotations = random_orthogonal_batch(b.shape[1], samples, rng)
    rotated = np.einsum("nk,mkj->mnj", b, rotations)
    gaps = np.sqrt(((rotated - t[None]) ** 2).sum(axis=(1, 2)))
    return float(gaps.min())


def subspace_distance(a, b) -> float:
    """Rotation-minimal distance between the ranges of two orthonormal bases.

    Computed as sqrt(2k - 2 ||a' b||_*) with the nuclear norm clamped to
    [0, k] before the square root; equals min over orthogonal R of
    ||a R - b||_F.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    k = a.shape[1]
    nn = min(max(float(np.linalg.svd(a.T @ b, compute_uv=False).sum()), 0.0), float(k))
    return float(np.sqrt(2.0 * k - 2.0 * nn))


def projection_distance(a, b) -> float:
    """Frobenius distance between the orthogonal projectors a a' and b b'.

    Evaluated as sqrt(2k - 2 ||a' b||_F^2) so the n x n projectors are never
    formed.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    k = a.shape[1]
    cross = min(max(float(np.sum((a.T @ b) ** 2)), 0.0), float(k))
    return float(np.sqrt(2.0 * k - 2.0 * cross))


# Tolerance for a dense indicator's column norms, which are exact by construction.
INDICATOR_TOL = 1e-10


@dataclass(eq=False)
class DenseIndicator:
    """The indicator as first written: a validated dense n x k matrix plus labels."""

    matrix: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.matrix = _readonly(self.matrix)
        self.labels = _readonly(self.labels, dtype=int)
        n, k = self.matrix.shape
        if self.labels.shape != (n,):
            raise ValueError("labels length must match the row count")
        if np.any(self.matrix < 0):
            raise ValueError("indicator entries must be nonnegative")
        if np.any((self.matrix > 0).sum(axis=1) != 1):
            raise ValueError("each row must have exactly one positive entry")
        if self.labels.min() < 0 or self.labels.max() >= k:
            raise ClusteringError(f"labels must lie in 0..{k - 1}")
        if np.any(self.matrix[np.arange(n), self.labels] <= 0):
            raise ValueError("labels must point at each row's positive entry")
        sizes = np.bincount(self.labels, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise ClusteringError(f"cluster {int(empty[0])} is empty")
        gram = self.matrix.T @ self.matrix
        if np.max(np.abs(gram - np.eye(k))) > INDICATOR_TOL:
            raise ValueError("indicator columns must be orthonormal")


def reference_make_indicator(labels, k: int) -> DenseIndicator:
    """The normalized indicator of integer labels, built as a dense n x k matrix."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1 or labels.size == 0:
        raise ClusteringError("labels must be a nonempty 1-D sequence")
    if labels.min() < 0 or labels.max() >= k:
        raise ClusteringError(f"labels must lie in 0..{k - 1}")
    sizes = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ClusteringError(f"cluster {int(empty[0])} is empty")
    h = np.zeros((labels.size, k))
    h[np.arange(labels.size), labels] = 1.0 / np.sqrt(sizes[labels])
    return DenseIndicator(h, labels)


def reference_round_to_indicator(relaxed: RelaxedAssignment) -> DenseIndicator:
    """Rounding to an indicator as first written, filling a dense n x k matrix."""
    n_mat = relaxed.matrix
    n, k = n_mat.shape
    labels = repair_empty_columns(n_mat, np.argmax(n_mat, axis=1))
    kept = n_mat[np.arange(n), labels].copy()
    # Rows parked by repair can carry a zero; give them unit weight so the
    # result still has one positive entry per row.
    kept[kept <= 0] = 1.0
    norms = np.sqrt(np.bincount(labels, weights=kept**2, minlength=k))
    kept = kept / norms[labels]
    h = np.zeros((n, k))
    h[np.arange(n), labels] = kept
    return DenseIndicator(h, labels)


def reference_kind_objective(basis: EmbeddedData, indicator: DenseIndicator) -> float:
    """The kind objective as first written, from the dense GEMM U'H."""
    if indicator.matrix.shape != basis.matrix.shape:
        raise ValueError("basis and indicator shapes must agree")
    k = basis.k
    sigma = np.linalg.svd(basis.matrix.T @ indicator.matrix, compute_uv=False)
    return max(2.0 * k - 2.0 * float(sigma.sum()), 0.0)


def reference_procrustes_rotation(cross):
    """The Procrustes rotation as first written: the polar factor and the
    singular values of `cross` from one SVD, whatever its conditioning."""
    p, sigma, qt = np.linalg.svd(cross)
    return p @ qt, sigma


def _reference_inner_solve(start, basis, params, trace=None):
    """The KindAP inner loop as first written: fresh n x k temporaries every
    iteration and the gap summed entrywise as ||U - N||_F^2."""
    u = start.matrix
    rotation = start.rotation
    prev = None
    history: list[float] = []
    iters = 0
    for t in range(1, params.max_inner + 1):
        n_mat = np.clip(u, 0.0, 1.0)
        rotation, sigma = reference_procrustes_rotation(basis.matrix.T @ n_mat)
        u = basis.matrix @ rotation
        gap = float(((u - n_mat) ** 2).sum())
        history.append(gap)
        iters = t
        if trace is not None and sigma[-1] < DEGENERATE_SV_TOL:
            trace.warnings.append(f"degenerate projection at inner iteration {t}")
        if prev is not None and prev - gap <= params.tol_inner * max(prev, OBJECTIVE_FLOOR):
            break
        prev = gap
    if trace is not None:
        trace.objective_history.extend(history)
    return RelaxedAssignment(n_mat), RotatedBasis(u, rotation), iters


def reference_kindap_solve(basis, params=None):
    """KindAP as first written, restarting each inner phase from a RotatedBasis.

    The reference that the buffer-reusing kernel in `kindicators.kindap` is
    gated against: labels and iteration counts must match exactly.
    """
    if params is None:
        params = KindapParams()
    n, k = basis.matrix.shape
    if n < k:
        raise ClusteringError(f"{n} objects cannot form {k} clusters")
    trace = SolverTrace()
    current = RotatedBasis(basis.matrix, np.eye(k))
    best_f = np.inf
    best_labels = None
    last_relaxed = None
    f_prev = None
    for outer in range(1, params.max_outer + 1):
        relaxed, current, inner_iters = _reference_inner_solve(current, basis, params, trace=trace)
        last_relaxed = relaxed
        trace.inner_iters_per_outer.append(inner_iters)
        trace.outer_iters = outer
        rounded = reference_round_to_indicator(relaxed)
        f = reference_kind_objective(basis, reference_make_indicator(rounded.labels, k))
        trace.outer_objective_history.append(f)
        if f < best_f:
            best_f = f
            best_labels = rounded.labels
        if f <= OBJECTIVE_FLOOR:
            break
        if f_prev is not None and f_prev - f <= params.tol_outer * max(f_prev, OBJECTIVE_FLOOR):
            break
        f_prev = f
        # Restart the next outer phase from the projection of the rounded
        # indicator back onto the rotation set.
        rotation, sigma = reference_procrustes_rotation(basis.matrix.T @ rounded.matrix)
        if sigma[-1] < DEGENERATE_SV_TOL:
            trace.warnings.append(f"degenerate restart projection at outer iteration {outer}")
        current = RotatedBasis(basis.matrix @ rotation, rotation)
    assert best_labels is not None
    return ClusterResult(
        labels=best_labels,
        kind_objective=best_f,
        kmeans_objective=kmeans_objective(basis, best_labels),
        relaxed=last_relaxed,
        trace=trace,
    )


def dense_knn_graph(data, knn: int, weight: str = "binary") -> SimilarityGraph:
    """The kNN graph built from the full n x n squared-distance matrix.

    Same contract as `kindicators.embedding.knn_graph`: symmetrized, self
    excluded, distance ties resolved toward the lower index by a stable sort.
    """
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if not 1 <= knn < n:
        raise ValueError(f"need 1 <= knn < n, got knn={knn}, n={n}")
    if weight not in WEIGHT_SCHEMES:
        raise ValueError(f"weight must be one of {WEIGHT_SCHEMES}")
    d2 = (
        (x**2).sum(axis=1)[:, None]
        - 2.0 * x @ x.T
        + (x**2).sum(axis=1)[None, :]
    )
    d2 = np.maximum(0.5 * (d2 + d2.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    # Stable sort keeps the original (lower-index-first) order on ties.
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :knn]
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), knn), neighbors.ravel()] = 1.0
    w = np.maximum(adj, adj.T)
    if weight == "gaussian":
        bandwidth = float(np.median(np.sqrt(d2[np.arange(n)[:, None], neighbors])))
        w = np.where(w > 0, np.exp(-d2 / (2.0 * bandwidth**2)), 0.0)
    return SimilarityGraph(w)


def _dense_laplacian(graph: SimilarityGraph) -> np.ndarray:
    w = graph.weights
    degrees = w.sum(axis=1)
    isolated = np.flatnonzero(degrees <= 0)
    if isolated.size:
        raise ClusteringError(f"vertex {int(isolated[0])} is isolated (degree 0)")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    laplacian = np.eye(w.shape[0]) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    return 0.5 * (laplacian + laplacian.T)


def dense_spectral_embed(graph: SimilarityGraph, k: int, row_normalize: bool = False) -> EmbeddedData:
    """Bottom-k eigenvectors of the normalized Laplacian from a full `eigh`.

    Inside a repeated eigenvalue (the null space of a disconnected graph) the
    basis is whatever LAPACK returns, so compare against it by subspace, not
    column by column.
    """
    n = graph.weights.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    try:
        _, vectors = np.linalg.eigh(_dense_laplacian(graph))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    u = reference_fix_column_signs(vectors[:, :k])
    if row_normalize:
        norms = np.linalg.norm(u, axis=1)
        u = u / np.maximum(norms, np.finfo(float).tiny)[:, None]
    return validate_embedding(u)


def laplacian_eigenvalues(graph: SimilarityGraph) -> np.ndarray:
    """All eigenvalues of the symmetric normalized Laplacian, ascending."""
    return np.linalg.eigvalsh(_dense_laplacian(graph))


def reference_squared_distances(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared point-to-center distances as first written, with fresh n x k temporaries."""
    d2 = (
        x_sq[:, None]
        - 2.0 * x @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def reference_kmeans_pp_init(data, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding as first written: three n x d passes per center."""
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if n < k:
        raise ClusteringError(f"{n} points cannot seed {k} centers")
    chosen = np.empty(k, dtype=int)
    chosen[0] = int(rng.integers(n))
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for t in range(1, k):
        total = d2.sum()
        if total <= 0:
            unchosen = np.setdiff1d(np.arange(n), chosen[:t])
            idx = int(rng.choice(unchosen))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen[t] = idx
        d2 = np.minimum(d2, ((x - x[idx]) ** 2).sum(axis=1))
    return x[chosen].copy()


def reference_sr_once(basis: EmbeddedData, rotation: np.ndarray, params):
    """One spectral-rotation run as first written: a validated one-hot matrix
    per iteration and the objective summed entrywise as ||U R - H||_F^2."""
    u_hat = basis.matrix
    n, k = u_hat.shape
    history: list[float] = []
    prev = None
    out_labels = np.zeros(n, dtype=int)
    out_obj = np.inf
    for _ in range(1, params.max_iters + 1):
        scores = u_hat @ rotation
        labels = repair_empty_columns(scores, np.argmax(scores, axis=1))
        b = BinaryIndicator.from_labels(labels, k)
        rotation, _ = reference_procrustes_rotation(u_hat.T @ b.matrix)
        obj = float(((u_hat @ rotation - b.matrix) ** 2).sum())
        if prev is not None and obj > prev:
            break
        history.append(obj)
        out_labels, out_obj = labels, obj
        if obj <= OBJECTIVE_FLOOR:
            break
        if prev is not None and prev - obj <= params.tol * max(prev, OBJECTIVE_FLOOR):
            break
        prev = obj
    return out_labels, out_obj, history


def _reference_seize_for_empty(x, labels, centers, dist_to_own):
    """Give each empty cluster the point farthest from its current center."""
    k = centers.shape[0]
    sizes = np.bincount(labels, minlength=k)
    for j in range(k):
        if sizes[j] > 0:
            continue
        candidates = np.where(sizes[labels] >= 2, dist_to_own, -np.inf)
        i = int(np.argmax(candidates))
        if candidates[i] == -np.inf:
            raise ClusteringError("cannot repair empty cluster: n < k")
        sizes[labels[i]] -= 1
        labels[i] = j
        sizes[j] += 1
        centers[j] = x[i]
        dist_to_own[i] = 0.0
    return labels, centers, dist_to_own


def _reference_kind_objective_if_embedded(x: np.ndarray, labels: np.ndarray) -> float | None:
    """Kind objective of the labels when x is a column-orthonormal n x k matrix."""
    n, d = x.shape
    if n < d or np.max(np.abs(x.T @ x - np.eye(d))) > ORTHONORMAL_TOL:
        return None
    try:
        h = reference_make_indicator(labels, d)
    except ClusteringError:
        return None
    sigma = np.linalg.svd(x.T @ h.matrix, compute_uv=False)
    return max(2.0 * d - 2.0 * float(sigma.sum()), 0.0)


def reference_lloyd_solve(data, k: int, init_centers, params: KmeansParams | None = None) -> ClusterResult:
    """Lloyd's iteration as first written, with its own empty-cluster seizure."""
    if params is None:
        params = KmeansParams()
    x = np.asarray(data, dtype=float)
    centers = np.array(init_centers, dtype=float)
    if centers.shape != (k, x.shape[1]):
        raise ValueError(f"init_centers must be {k} x {x.shape[1]}")
    n = x.shape[0]
    trace = SolverTrace()
    labels = np.zeros(n, dtype=int)
    x_sq = (x**2).sum(axis=1)
    for it in range(1, params.max_iters + 1):
        d2 = reference_squared_distances(x, x_sq, centers)
        labels = np.argmin(d2, axis=1)
        dist_to_own = d2[np.arange(n), labels]
        if np.bincount(labels, minlength=k).min() == 0:
            labels, centers, dist_to_own = _reference_seize_for_empty(
                x, labels, centers, dist_to_own
            )
        trace.objective_history.append(float(dist_to_own.sum()))
        trace.outer_iters = it
        new_centers = cluster_sums(x, labels, k)
        new_centers /= np.bincount(labels, minlength=k)[:, None]
        shift = float(np.linalg.norm(new_centers - centers))
        scale = max(float(np.linalg.norm(centers)), OBJECTIVE_FLOOR)
        centers = new_centers
        if shift <= params.tol * scale:
            break
    final_obj = float(((x - centers[labels]) ** 2).sum())
    return ClusterResult(
        labels=labels,
        kind_objective=_reference_kind_objective_if_embedded(x, labels),
        kmeans_objective=final_obj,
        trace=trace,
    )


def reference_generate(spec) -> SynthDataset:
    """The synthetic generator as first written, adding a gathered n x d
    center matrix to a scaled copy of the directions."""
    rng = np.random.default_rng(spec.seed)
    n = spec.k * spec.per_cluster
    truth = np.repeat(np.arange(spec.k), spec.per_cluster)
    centers = np.zeros((spec.k, spec.ambient_dim))
    centers[np.arange(spec.k), np.arange(spec.k)] = np.sqrt(2.0)
    directions = rng.standard_normal((n, spec.ambient_dim))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    raw = centers[truth] + spec.rho * directions
    left, _, _ = np.linalg.svd(raw, full_matrices=False)
    embedded = EmbeddedData(reference_fix_column_signs(left[:, : spec.k]))
    return SynthDataset(raw=raw, truth=truth, embedded=embedded)


def reference_write_matrix_csv(path, matrix) -> None:
    """The matrix CSV writer as first written: one f-string per cell."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="") as fh:
        for row in m:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def reference_write_labels_csv(path, labels) -> None:
    """The label CSV writer as first written: one integer f-string per label."""
    with open(path, "w") as fh:
        for value in np.asarray(labels, dtype=int):
            fh.write(f"{int(value)}\n")


def reference_accuracy(pred, truth) -> float:
    """Accuracy as first written: a dense confusion matrix, one cell per pair of
    distinct predicted and true ids, and a dense rectangular assignment."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    pred_ids, pred = np.unique(pred, return_inverse=True)
    truth_ids, truth = np.unique(truth, return_inverse=True)
    shape = (pred_ids.size, truth_ids.size)
    confusion = np.bincount(pred * shape[1] + truth, minlength=shape[0] * shape[1]).reshape(shape)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return float(confusion[rows, cols].sum() / pred.size)


def gaussian_blobs(k: int, sigma: float, seed: int, per_cluster: int = 40) -> SynthDataset:
    """Gaussian clusters in d = k dimensions around the centers sqrt(2) e_j.

    Centers are 2 apart, as in `generate`, but each point adds N(0, sigma^2 I)
    noise, so clusters overlap once sigma sqrt(k) nears the center distance.
    The embedding is the k left singular vectors of the raw matrix with the
    generator's sign convention.
    """
    rng = np.random.default_rng(seed)
    n = k * per_cluster
    truth = np.repeat(np.arange(k), per_cluster)
    raw = sigma * rng.standard_normal((n, k))
    raw[np.arange(n), truth] += np.sqrt(2.0)
    left, _, _ = np.linalg.svd(raw, full_matrices=False)
    embedded = EmbeddedData(reference_fix_column_signs(left))
    return SynthDataset(raw=raw, truth=truth, embedded=embedded)
