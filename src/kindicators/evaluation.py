"""Clustering accuracy, model objectives, and per-object assignment confidence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .core import (
    ClusteringError,
    EmbeddedData,
    IndicatorMatrix,
    RelaxedAssignment,
    _readonly,
    cluster_sums,
    make_indicator,
)

@dataclass(eq=False)
class SoftIndicator:
    """Per-object confidence in [0, 1]; 1 means an unambiguous assignment."""

    s: np.ndarray

    def __post_init__(self):
        self.s = _readonly(self.s)
        # NaN fails both comparisons; `initial` keeps an empty array valid.
        if not (self.s.min(initial=0) >= 0 and self.s.max(initial=1) <= 1):
            raise ValueError("soft indicator values must lie in [0, 1]")


def accuracy(pred, truth) -> float:
    """Fraction of objects matched under the best cluster-id assignment.

    Solves the maximum-weight (rectangular) assignment on the confusion
    matrix, so the score is invariant to relabeling either side. The matrix
    has one row per distinct predicted id and one column per distinct true
    id, whatever the ids' values. It is kept sparse, one entry per distinct
    (predicted, true) pair (at most n), and solved by
    :func:`_max_matching_weight`, so memory stays O(n) however many ids
    there are.
    """
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.ndim != 1 or truth.ndim != 1 or pred.shape != truth.shape:
        raise ClusteringError(
            f"label lengths differ: {pred.shape} vs {truth.shape}"
        )
    if pred.size == 0:
        raise ClusteringError("labels must be nonempty")
    if pred.min() < 0 or truth.min() < 0:
        raise ClusteringError("labels must be nonnegative")
    pred = np.unique(pred, return_inverse=True)[1]
    truth_ids, truth = np.unique(truth, return_inverse=True)
    cols = truth_ids.size
    pairs, counts = np.unique(pred * cols + truth, return_counts=True)
    return float(_max_matching_weight(pairs // cols, pairs % cols, counts) / pred.size)


def _max_matching_weight(rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> int:
    """Largest total count over the matchings of a sparse confusion matrix C.

    `rows`, `cols` and `counts` list the nonzeros of the p x t matrix C in
    row-major order; every row from 0 to p - 1 has one. The sparse solver
    needs nonzero weights and a perfect matching, so it gets a square graph
    of side p + t: C's rows then t padding rows, C's columns then p padding
    columns. Row i of C may take padding column t + i, padding row p + j may
    take column j of C, and padding row p + j meets padding column t + i
    wherever C has an entry (i, j), so every matching of C extends to a
    perfect one. Entries of C weigh minus their count minus one and every
    other edge minus one; a perfect matching then weighs minus the counts
    it covers minus p + t, and the lightest one covers the most.
    """
    p, t = int(rows[-1]) + 1, int(cols.max()) + 1
    graph = sparse.csr_array(
        (
            np.concatenate([-1.0 - counts, np.full(p + t + counts.size, -1.0)]),
            (
                np.concatenate([rows, np.arange(p), p + np.arange(t), p + cols]),
                np.concatenate([cols, t + np.arange(p), np.arange(t), t + rows]),
            ),
        ),
        shape=(p + t, p + t),
    )
    matched_rows, matched_cols = min_weight_full_bipartite_matching(graph)
    real = (matched_rows < p) & (matched_cols < t)
    # Codes row * t + column are sorted, since the entries are row-major.
    found = np.searchsorted(rows * t + cols, matched_rows[real] * t + matched_cols[real])
    return int(counts[found].sum())


def soft_indicator(relaxed: RelaxedAssignment) -> SoftIndicator:
    """Confidence per object: 1 minus the ratio of its second-largest to largest entry.

    A row with no positive entry prefers no cluster, so its confidence is 0.
    """
    n_mat = relaxed.matrix
    k = n_mat.shape[1]
    if k < 2:
        raise ValueError("soft indicator needs at least two columns")
    top_two = np.partition(n_mat, k - 2, axis=1)[:, k - 2 :]
    largest = top_two[:, 1]
    ratio = np.divide(top_two[:, 0], largest, out=np.ones_like(largest), where=largest > 0)
    return SoftIndicator(1.0 - ratio)


def kind_objective(basis: EmbeddedData, indicator: IndicatorMatrix) -> float:
    """Squared rotation-minimal subspace distance between data and indicator ranges.

    H is the normalized indicator of the labels, as `indicator.values`
    holds it. Equals 2k minus twice the nuclear norm of U'H, clamped at 0;
    the k x k product is read off :func:`cluster_sums` as its transpose H'U.
    """
    if (indicator.n, indicator.k) != (basis.n, basis.k):
        raise ValueError("basis and indicator shapes must agree")
    k = basis.k
    s = cluster_sums(basis.matrix, indicator.labels, k, indicator.values)
    sigma = np.linalg.svd(s, compute_uv=False)
    return max(2.0 * k - 2.0 * float(sigma.sum()), 0.0)


def kmeans_objective(basis: EmbeddedData, labels) -> float:
    """Within-cluster scatter of orthonormal data in indicator form: k - ||U' H||_F^2.

    For column-orthonormal data this equals the within-cluster sum of squared
    distances to centroids; the normalized indicator built from `labels`
    supplies H, and :func:`cluster_sums` the k x k product H'U. Raises
    ClusteringError for invalid labels.
    """
    h = make_indicator(labels, basis.k)
    cross = float(np.sum(cluster_sums(basis.matrix, h.labels, basis.k, h.values) ** 2))
    return max(float(basis.k) - cross, 0.0)
