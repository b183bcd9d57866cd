"""Lloyd's k-means with k-means++ replications, and the spectral-rotation baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteringError,
    ClusterResult,
    EmbeddedData,
    SolverTrace,
    _qr_orthonormal,
    cluster_sums,
    make_indicator,
    require_counts,
    require_positive,
)
from .evaluation import kind_objective, kmeans_objective
from .kindap import OBJECTIVE_FLOOR, repair_empty_columns
from .projections import procrustes_rotation

# A norm-expanded squared distance at or below this fraction of
# ||x_i||^2 + ||c||^2 is within rounding of zero; k-means++ recomputes it by
# direct difference, so a duplicate of a chosen center weighs exactly 0.
CANCELLATION_BAND = 1e-8

# Replication objectives within this distance of the best, relative to
# max(1, |best|), count as tied; the lowest index among them wins.
REPLICATION_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class KmeansParams:
    replications: int = 10
    max_iters: int = 300
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        require_counts(1, replications=self.replications, max_iters=self.max_iters)
        require_counts(0, seed=self.seed)
        require_positive(tol=self.tol)
        # The most streams SeedSequence.spawn can make.
        if self.replications > np.iinfo(np.intp).max:
            raise ValueError(f"replications must be <= {np.iinfo(np.intp).max}")


@dataclass(frozen=True)
class SrParams(KmeansParams):
    max_iters: int = 100


def _squared_distances(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from each row of x (squared norms `x_sq`) to each center.

    Built in place in the n x k product x (-2 c)'. Scaling an operand by -2
    is exact, so this is bitwise -2 x c'.
    """
    d2 = x @ (-2.0 * centers).T
    d2 += x_sq[:, None]
    d2 += (centers**2).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _distances_to_rows(x: np.ndarray, x_sq: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Squared distances from each row of x to each of the rows `idx`: R x n.

    One (R x d)(d x n) product. Entries inside the cancellation band are
    recomputed by direct difference.
    """
    d2 = x[idx] @ x.T
    d2 *= -2.0
    d2 += x_sq
    c_sq = x_sq[idx, None]
    d2 += c_sq
    rows, cols = np.nonzero(d2 <= CANCELLATION_BAND * (x_sq + c_sq))
    d2[rows, cols] = ((x[cols] - x[idx[rows]]) ** 2).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _check_k_and_data(data, k) -> np.ndarray:
    """`data` as a float n x d array, once the k-means entry checks pass.

    k must be an integer >= 1, the data 2-D with n >= k rows and at least
    one column, and finite with max |x_ij| = m small enough that n d (2m)^2,
    a bound on any sum of n squared distances between points and means of
    points, is finite: one pass each for the data's min and max.
    """
    require_counts(1, k=k)
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"data must be a 2-D array with at least one column, got shape {x.shape}")
    n, d = x.shape
    if n < k:
        raise ClusteringError(f"{n} points cannot form {k} clusters")
    m = max(float(x.max()), -float(x.min()))
    if not np.isfinite(4.0 * n * d * m * m):
        raise ValueError("data must be finite, and small enough that squared distances do not overflow")
    return x


def kmeans_pp_init(data, k: int, rngs) -> np.ndarray:
    """k-means++ seeding, one run per generator in `rngs`: an R x k x d array.

    The first center is uniform, the rest squared-distance weighted. When all
    remaining squared distances are zero (duplicate points), the next center
    falls back to a uniform choice among unchosen indices, so the k chosen
    indices are always distinct.

    The R runs go in lockstep, and each draws from its own generator the
    same numbers in the same order as a run on its own, so run r equals
    ``kmeans_pp_init(data, k, [rngs[r]])[0]``. Cost per center but the last:
    one (R x d)(d x n) product, from the norm expansion
    ||x_i||^2 + ||c||^2 - 2 x_i'c with the row norms computed once. Each
    weighted draw inverts the cumulative distribution at one uniform draw,
    the same arithmetic and the same stream as ``rng.choice(n, p=d2 / total)``
    without its per-call validation and copies. Every call checks k and the
    data (:func:`_check_k_and_data`), from :func:`kmeans_solve` too.
    """
    x = _check_k_and_data(data, k)
    x_sq = np.einsum("ij,ij->i", x, x)
    n = x.shape[0]
    chosen = np.empty((len(rngs), k), dtype=int)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = _distances_to_rows(x, x_sq, chosen[:, 0])
    cdf = np.empty_like(d2)
    for t in range(1, k):
        total = d2.sum(axis=1)
        weighted = total > 0
        np.divide(d2, np.where(weighted, total, 1.0)[:, None], out=cdf)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= np.where(weighted, cdf[:, -1], 1.0)[:, None]
        for r, rng in enumerate(rngs):
            if weighted[r]:
                chosen[r, t] = cdf[r].searchsorted(rng.random(), side="right")
            else:
                chosen[r, t] = rng.choice(np.setdiff1d(np.arange(n), chosen[r, :t]))
        if t < k - 1:
            np.minimum(d2, _distances_to_rows(x, x_sq, chosen[:, t]), out=d2)
    return x[chosen]


def _best_replication(objectives) -> int:
    """Lowest index whose objective ties the best within REPLICATION_TIE_RTOL."""
    values = np.asarray(objectives, dtype=float)
    best = float(values.min())
    cutoff = best + REPLICATION_TIE_RTOL * max(1.0, abs(best))
    return int(np.flatnonzero(values <= cutoff)[0])


def _kind_objective_if_embedded(x: np.ndarray, labels: np.ndarray) -> float | None:
    """Kind objective of the labels when x is a column-orthonormal n x k matrix."""
    try:
        return kind_objective(EmbeddedData(x), make_indicator(labels, x.shape[1]))
    except (ValueError, ClusteringError):
        return None


def lloyd_solve(
    data, k: int, init_centers, params: KmeansParams = KmeansParams(), *, _row_norms=None
) -> ClusterResult:
    """Standard assign/update k-means iteration from the given centers.

    Records the within-cluster sum of squares after every assignment step
    (nonincreasing across iterations). Empty clusters are repaired by
    :func:`repair_empty_columns` scored by each point's distance to its own
    center: each empty cluster seizes the farthest point and is centered on
    it. Stops when the Frobenius movement of the centers falls below
    `params.tol` relative to their norm ("tol"), or at `params.max_iters`
    ("cap"); the trace's `stop_reasons` holds that one reason. The kind
    objective is reported when the data is column-orthonormal.
    """
    if _row_norms is None:
        x = _check_k_and_data(data, k)
        x_sq = (x**2).sum(axis=1)
    else:
        # From kmeans_solve alone: checked data, its ``(x**2).sum(axis=1)``,
        # and no kind objective, which kmeans_solve scores for its winner.
        x, x_sq = data, _row_norms
    centers = np.array(init_centers, dtype=float)
    if centers.shape != (k, x.shape[1]):
        raise ValueError(f"init_centers must be {k} x {x.shape[1]}")
    if not np.isfinite(centers).all():
        raise ValueError("init_centers must be finite")
    n = x.shape[0]
    trace = SolverTrace()
    labels = np.zeros(n, dtype=int)
    stop = "cap"
    for it in range(1, params.max_iters + 1):
        d2 = _squared_distances(x, x_sq, centers)
        labels = np.argmin(d2, axis=1)
        dist_to_own = d2[np.arange(n), labels]
        if np.bincount(labels, minlength=k).min() == 0:
            repaired = repair_empty_columns(np.broadcast_to(dist_to_own[:, None], d2.shape), labels)
            moved = np.flatnonzero(repaired != labels)
            labels = repaired
            centers[labels[moved]] = x[moved]
            dist_to_own[moved] = 0.0
        trace.objective_history.append(float(dist_to_own.sum()))
        trace.outer_iters = it
        new_centers = cluster_sums(x, labels, k)
        new_centers /= np.bincount(labels, minlength=k)[:, None]
        shift = float(np.linalg.norm(new_centers - centers))
        scale = max(float(np.linalg.norm(centers)), OBJECTIVE_FLOOR)
        centers = new_centers
        if shift <= params.tol * scale:
            stop = "tol"
            break
    trace.stop_reasons.append(stop)
    return ClusterResult(
        labels=labels,
        kind_objective=_kind_objective_if_embedded(x, labels) if _row_norms is None else None,
        kmeans_objective=float(((x - centers[labels]) ** 2).sum()),
        trace=trace,
    )


def _best_of(params: KmeansParams, starts, run) -> tuple[np.ndarray, SolverTrace]:
    """Best of `params.replications` runs, one per start, and its trace.

    Spawns one stream per replication from the base seed (indexed spawning,
    so a replication's stream does not depend on the others), draws every
    replication's start at once with `starts(rngs)`, then calls `run(start)`
    on each start in turn for (labels, objective, history, stop reason). The
    lowest objective wins; objectives within REPLICATION_TIE_RTOL of the best
    tie, and ties go to the lowest index. The trace holds the winner's
    history and every run's objective, history and stop reason.
    """
    streams = np.random.SeedSequence(params.seed).spawn(params.replications)
    runs = [run(start) for start in starts([np.random.default_rng(s) for s in streams])]
    labels, objectives, histories, stops = (list(column) for column in zip(*runs))
    best = _best_replication(objectives)
    return labels[best], SolverTrace(
        outer_iters=len(histories[best]),
        objective_history=histories[best],
        replication_index=best,
        replication_objectives=objectives,
        replication_histories=histories,
        stop_reasons=stops,
    )


def kmeans_solve(data, k: int, params: KmeansParams = KmeansParams()) -> ClusterResult:
    """Best of `params.replications` k-means++ starts of :func:`lloyd_solve` (:func:`_best_of`).

    All replications' starts come from one lockstep :func:`kmeans_pp_init`
    call, which checks the data on its own. The data is checked once more,
    for every replication's :func:`lloyd_solve`; its row norms are summed
    once for the Lloyd runs, and the kind objective is scored for the
    winner alone.
    """
    x = _check_k_and_data(data, k)
    x_sq = (x**2).sum(axis=1)

    def run(centers):
        lloyd = lloyd_solve(x, k, centers, params, _row_norms=x_sq)
        (stop,) = lloyd.trace.stop_reasons
        return lloyd.labels, lloyd.kmeans_objective, lloyd.trace.objective_history, stop

    labels, trace = _best_of(params, lambda rngs: kmeans_pp_init(x, k, rngs), run)
    return ClusterResult(
        labels=labels,
        kind_objective=_kind_objective_if_embedded(x, labels),
        kmeans_objective=trace.replication_objectives[trace.replication_index],
        trace=trace,
    )


def _random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal factor of a standard Gaussian k x k matrix, sign-fixed."""
    return _qr_orthonormal(rng.standard_normal((k, k)))


def _sr_once(basis: EmbeddedData, rotation: np.ndarray, params: SrParams):
    """One spectral-rotation run from a given initial rotation.

    Alternates the one-hot assignment update (argmax per row of U R, ties to
    the lowest column, empty columns repaired) with the closed-form rotation
    update. Both half-steps minimize the objective exactly on the
    unconstrained set, but the repair can push uphill, so an iterate that
    increases the objective is rejected and the run stops with the previous
    one; the recorded history is therefore nonincreasing. Returns the
    labels, their objective, the history and the stop reason: "floor",
    "tol", "cap" or "uphill" (a rejected iterate).

    Cost per iteration: the U R GEMM, the k x k product U'H read off
    :func:`cluster_sums` (H is one-hot, so H'U sums U's rows per cluster),
    and one k x k SVD; no n x k indicator is built. The objective is read
    off the Procrustes singular values, clamped at 0.
    """
    u_hat = basis.matrix
    n, k = u_hat.shape
    # ||U R - H||^2 = ||U||^2 + n - 2 tr(R'U'H) for orthogonal R and one-hot
    # H, and at the Procrustes rotation the trace is the sum of the singular
    # values of U'H.
    offset = float(np.einsum("ij,ij->", u_hat, u_hat)) + n
    scores = np.empty((n, k))
    history: list[float] = []
    prev = None
    out_labels = np.zeros(n, dtype=int)
    out_obj = np.inf
    stop = "cap"
    for _ in range(1, params.max_iters + 1):
        np.matmul(u_hat, rotation, out=scores)
        labels = repair_empty_columns(scores, np.argmax(scores, axis=1))
        rotation, sigma = procrustes_rotation(cluster_sums(u_hat, labels, k).T)
        obj = max(offset - 2.0 * float(sigma.sum()), 0.0)
        if prev is not None and obj > prev:
            stop = "uphill"
            break
        history.append(obj)
        out_labels, out_obj = labels, obj
        if obj <= OBJECTIVE_FLOOR:
            stop = "floor"
            break
        if prev is not None and prev - obj <= params.tol * max(prev, OBJECTIVE_FLOOR):
            stop = "tol"
            break
        prev = obj
    return out_labels, out_obj, history, stop


def sr_solve(basis: EmbeddedData, params: SrParams = SrParams()) -> ClusterResult:
    """Spectral rotation: fit a binary indicator to a rotation of the basis.

    Best of `params.replications` runs of :func:`_sr_once` from random
    orthogonal rotations (:func:`_best_of`), by the rotation-fit objective,
    which lives in the trace (equal partitions under different cluster
    numberings tie within its last bits). The result reports the winner's
    kind and k-means objectives for cross-model comparison.
    """
    labels, trace = _best_of(
        params,
        lambda rngs: [_random_orthogonal(basis.k, rng) for rng in rngs],
        lambda rotation: _sr_once(basis, rotation, params),
    )
    return ClusterResult(
        labels=labels,
        kind_objective=kind_objective(basis, make_indicator(labels, basis.k)),
        kmeans_objective=kmeans_objective(basis, labels),
        trace=trace,
    )
