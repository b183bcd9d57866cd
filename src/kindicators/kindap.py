"""Double-layer alternating-projection solver for the K-indicators model.

The inner loop alternates exact projections between the rotations of the data
basis and the [0, 1] box (the semi-convex relaxation of the indicator set);
the outer loop rounds the relaxed assignment to an indicator matrix, scores
it, and projects it back onto the rotation set to restart (or resumes the
inner phase, when the budget cut it short and the score stalled). Both
projections are exact, so the inner gap is nonincreasing by construction,
and the whole solve is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClusteringError,
    ClusterResult,
    EmbeddedData,
    RelaxedAssignment,
    SolverTrace,
    cluster_sums,
    make_indicator,
    require_counts,
    require_positive,
)
from .evaluation import kind_objective, kmeans_objective
from .projections import DEGENERATE_SV_TOL, procrustes_rotation

# Objectives at or below this are treated as zero (the model's global floor).
OBJECTIVE_FLOOR = 1e-12

# Iterations a KindAP inner phase starts with; see :func:`kindap_solve`.
INNER_BUDGET = 3


@dataclass(frozen=True)
class KindapParams:
    """Solver knobs.

    Tolerances are relative objective improvements. Each inner phase runs
    under a budget that starts at INNER_BUDGET (3) iterations and grows up to
    `max_inner` (see :func:`kindap_solve`), so a solve takes many short
    phases: a handful on separable data, up to about a hundred on hard,
    overlapping data, which the `max_outer` cap leaves room for. A phase
    that the budget cut short and after which the outer objective stalled is
    resumed, not restarted, and counts as a phase of its own. The solver is
    deterministic and draws no random numbers.
    """

    max_outer: int = 200
    max_inner: int = 200
    tol_inner: float = 1e-5
    tol_outer: float = 1e-5

    def __post_init__(self):
        require_counts(1, max_outer=self.max_outer, max_inner=self.max_inner)
        require_positive(tol_inner=self.tol_inner, tol_outer=self.tol_outer)


def inner_solve(
    rotation: np.ndarray,
    basis: EmbeddedData,
    params: KindapParams,
    trace: SolverTrace,
    budget: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int, str]:
    """Alternate box and Procrustes projections from B R until the gap stalls.

    B is `basis.matrix` and R starts at `rotation`. Each iteration clamps the
    current rotated basis B R into the box, giving N, then projects N
    back onto the rotation set. The squared gap ||B R - N||_F^2 is read off
    the Procrustes singular values sigma of B'N as ||B||_F^2 + ||N||_F^2 -
    2 sum(sigma) (Schoenemann 1966), so it costs one dot product instead of
    a pass over an n x k difference; it is recorded per iteration and is
    nonincreasing because both projections are exact. Stops once the
    relative gap improvement drops below `params.tol_inner` ("tol"), or
    after `budget` iterations ("budget") or `params.max_inner` ("cap"),
    whichever is fewer; a `budget` of `params.max_inner` or more stops on
    "cap".

    Per iteration the work is two GEMMs with an n x k operand (B'N and B R),
    one in-place clip and one k x k Procrustes step (see
    :func:`~kindicators.projections.procrustes_rotation`). The only n x k
    memory is one buffer, `out` or else allocated: each B R is written into
    it and clipped in place, as nothing reads B R once clipped. The B R of
    the phase's last iteration is skipped, since the next phase makes its
    own first product, also when it resumes from the returned rotation: a
    phase of t iterations makes t products B R, the first from `rotation`,
    and its buffer ends holding the last N.

    Returns that buffer holding the final box projection N (entries in
    [0, 1]), the k x k rotation of the last projection, the iteration count
    and the stop reason. The gap sequence is appended to `trace`'s
    objective_history and near-degenerate projections are noted in its
    warnings.
    """
    limit = min(budget, params.max_inner)
    stop = "cap" if limit == params.max_inner else "budget"
    b = basis.matrix
    b_sq = float(np.vdot(b, b))
    n_mat = np.matmul(b, rotation, out=out)
    prev = None
    iters = 0
    for t in range(1, limit + 1):
        np.clip(n_mat, 0.0, 1.0, out=n_mat)
        rotation, sigma = procrustes_rotation(b.T @ n_mat)
        # Exact in real arithmetic; in floating point a zero gap can come out
        # a few ulps below zero.
        gap = max(b_sq + float(np.vdot(n_mat, n_mat)) - 2.0 * float(sigma.sum()), 0.0)
        trace.objective_history.append(gap)
        iters = t
        if sigma[-1] < DEGENERATE_SV_TOL:
            trace.warnings.append(f"degenerate projection at inner iteration {t}")
        if prev is not None and prev - gap <= params.tol_inner * max(prev, OBJECTIVE_FLOOR):
            stop = "tol"
            break
        prev = gap
        if t < limit:
            np.matmul(b, rotation, out=n_mat)
    return n_mat, rotation, iters, stop


def repair_empty_columns(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reassign rows so every column of an argmax labeling is nonempty.

    For each empty column j in ascending order, the row with the largest
    `values[:, j]` among rows whose current cluster has at least two members
    moves to j (ties broken by the lowest row index). Deterministic. Needs
    n >= k, as every caller has: an empty column then leaves some cluster
    with two or more rows to move from.
    """
    n, k = values.shape
    labels = np.array(labels, dtype=int)
    sizes = np.bincount(labels, minlength=k)
    for j in range(k):
        if sizes[j] > 0:
            continue
        candidates = np.where(sizes[labels] >= 2, values[:, j], -np.inf)
        i = int(np.argmax(candidates))
        sizes[labels[i]] -= 1
        labels[i] = j
        sizes[j] += 1
    return labels


def round_to_indicator(n_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round a relaxed assignment to the nearest indicator-structured matrix.

    `n_mat` is an n x k matrix in the [0, 1] box, such as the buffer
    :func:`inner_solve` returns or a RelaxedAssignment's `matrix`.

    Keeps each row's largest entry (ties go to the lowest column index),
    repairs empty columns with :func:`repair_empty_columns`, and scales every
    column to unit norm: returns the labels and each row's weight, as plain
    arrays. Costs O(nk) for the argmax and O(n) after it; no n x k array is
    built. For n < k, raises ClusteringError.
    """
    n, k = n_mat.shape
    labels = repair_empty_columns(n_mat, np.argmax(n_mat, axis=1))
    kept = n_mat[np.arange(n), labels]
    # Rows parked by repair can carry a zero; give them unit weight so every
    # row keeps a positive entry.
    kept[kept <= 0] = 1.0
    norms = np.sqrt(np.bincount(labels, weights=kept**2, minlength=k))
    if not norms.all():  # only for n < k; otherwise the repair fills every column
        raise ClusteringError(f"cluster {int(np.argmin(norms))} is empty")
    return labels, kept / norms[labels]


def kindap_solve(basis: EmbeddedData, params: KindapParams = KindapParams()) -> ClusterResult:
    """Cluster a column-orthonormal embedding by double-layer alternating projections.

    Starting from the identity rotation, each outer iteration runs
    :func:`inner_solve`, rounds the relaxed assignment to an indicator matrix,
    evaluates the squared subspace distance between the data range and the
    (normalized) indicator range, and projects the rounded matrix back onto
    the rotation set to restart.

    Each inner phase runs under a budget, starting at INNER_BUDGET (3)
    iterations: the gap of a phase falls only linearly, and the outer
    restart from the rounded indicator moves further than the tail of a long
    phase, so many short phases reach the partition in fewer iterations than
    a few long ones (on recoverable data the same partition). When a phase
    that spent its whole budget leaves the outer objective stalled, the
    budget doubles, up to `params.max_inner`, instead of stopping, and the
    next phase resumes from the rotation that phase ended on rather than
    restarting: the stall says the rounded partition scored no better, so a
    restart would come from much the same partition and re-walk much the
    same path. A resumed phase
    follows the stalled one bit for bit, as one longer :func:`inner_solve`
    would, except that its first iteration cannot stop on
    `params.tol_inner` (it has no previous gap to compare with); it takes no
    restart projection. Every other phase restarts. The outer
    loop stops at the objective floor ("floor"), when the relative
    improvement drops below `params.tol_outer` after a phase that ended on
    `params.tol_inner` or `params.max_inner` ("tol"), or else after the phase
    at `params.max_outer` ("cap"), which always runs without the budget. So
    the last phase is a full one unless the floor comes first, and the
    returned relaxed assignment is never cut short by the budget. The
    best-scoring labeling ever seen is returned, along with its
    indicator-form k-means objective, the final relaxed assignment, and the
    full trace, whose `stop_reasons` hold each phase's stop and
    `outer_stop_reason` the outer loop's.

    Only the k x k rotation passes from one phase to the next; the n x k
    working memory is one buffer, allocated once and reused by every
    :func:`inner_solve` call. The result's `relaxed` is that buffer itself,
    frozen, not a copy.
    """
    n, k = basis.matrix.shape
    trace = SolverTrace()
    rotation = np.eye(k)
    budget = INNER_BUDGET
    best_f = np.inf
    best_labels: np.ndarray | None = None
    n_mat = np.empty((n, k))
    f_prev = None
    for outer in range(1, params.max_outer + 1):
        n_mat, last_rotation, inner_iters, phase_stop = inner_solve(
            rotation, basis, params, trace,
            params.max_inner if outer == params.max_outer else budget,
            out=n_mat,
        )
        trace.inner_iters_per_outer.append(inner_iters)
        trace.stop_reasons.append(phase_stop)
        trace.outer_iters = outer
        labels, weights = round_to_indicator(n_mat)
        indicator = make_indicator(labels, k)
        f = kind_objective(basis, indicator)
        trace.outer_objective_history.append(f)
        if f < best_f:
            best_f = f
            best_labels = indicator.labels
        if f <= OBJECTIVE_FLOOR:
            trace.outer_stop_reason = "floor"
            break
        if outer == params.max_outer:
            trace.outer_stop_reason = "cap"
            break
        stalled = (
            f_prev is not None and f_prev - f <= params.tol_outer * max(f_prev, OBJECTIVE_FLOOR)
        )
        f_prev = f
        if stalled:
            if phase_stop != "budget":
                trace.outer_stop_reason = "tol"
                break
            # The budget cut the phase short and the partition scored no
            # better: resume the phase where it stopped, with a doubled budget.
            budget = min(2 * budget, params.max_inner)
            rotation = last_rotation
            continue
        # Restart the next outer phase from the projection of the rounded,
        # weighted indicator H back onto the rotation set, through U'H = (H'U)'.
        cross = cluster_sums(basis.matrix, labels, k, weights).T
        rotation, sigma = procrustes_rotation(cross)
        if sigma[-1] < DEGENERATE_SV_TOL:
            trace.warnings.append(f"degenerate restart projection at outer iteration {outer}")
    assert best_labels is not None
    n_mat.setflags(write=False)
    return ClusterResult(
        labels=best_labels,
        kind_objective=best_f,
        kmeans_objective=kmeans_objective(basis, best_labels),
        relaxed=RelaxedAssignment(n_mat),
        trace=trace,
    )


def warm_start_centers(basis: EmbeddedData, result: ClusterResult) -> np.ndarray:
    """Per-cluster means of the embedded rows, for warm-starting Lloyd iterations."""
    if result.labels.shape != (basis.n,):
        raise ValueError("labels length must match the embedding")
    sizes = make_indicator(result.labels, basis.k).cluster_sizes  # raises on an empty cluster
    return cluster_sums(basis.matrix, result.labels, basis.k) / sizes[:, None]
