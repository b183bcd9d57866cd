"""Clustering accuracy, model objectives, and per-object assignment confidence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (
    BadLabelError,
    EmbeddedData,
    IndicatorMatrix,
    LengthMismatchError,
    RelaxedAssignment,
    ZeroRowError,
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
        if np.any(self.s < 0) or np.any(self.s > 1):
            raise ValueError("soft indicator values must lie in [0, 1]")


def accuracy(pred, truth) -> float:
    """Fraction of objects matched under the best cluster-id assignment.

    Builds the confusion matrix and solves the maximum-weight (rectangular)
    assignment, so the score is invariant to relabeling either side. The
    matrix has one row per distinct predicted id and one column per distinct
    true id, whatever the ids' values.
    """
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if pred.ndim != 1 or truth.ndim != 1 or pred.shape != truth.shape:
        raise LengthMismatchError(
            f"label lengths differ: {pred.shape} vs {truth.shape}"
        )
    if pred.size == 0:
        raise LengthMismatchError("labels must be nonempty")
    if pred.min() < 0 or truth.min() < 0:
        raise BadLabelError("labels must be nonnegative")
    pred_ids, pred = np.unique(pred, return_inverse=True)
    truth_ids, truth = np.unique(truth, return_inverse=True)
    shape = (pred_ids.size, truth_ids.size)
    confusion = np.bincount(pred * shape[1] + truth, minlength=shape[0] * shape[1]).reshape(shape)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return float(confusion[rows, cols].sum() / pred.size)


def soft_indicator(relaxed: RelaxedAssignment) -> SoftIndicator:
    """Confidence per object: 1 minus the ratio of its second-largest to largest entry."""
    n_mat = relaxed.matrix
    if n_mat.shape[1] < 2:
        raise ValueError("soft indicator needs at least two columns")
    ordered = -np.sort(-n_mat, axis=1)
    largest = ordered[:, 0]
    zero = np.flatnonzero(largest <= 0)
    if zero.size:
        raise ZeroRowError(zero[0])
    return SoftIndicator(1.0 - ordered[:, 1] / largest)


def kind_objective(basis: EmbeddedData, indicator: IndicatorMatrix) -> float:
    """Squared rotation-minimal subspace distance between data and indicator ranges.

    Equals 2k minus twice the nuclear norm of U'H, clamped at 0; the k x k
    product is read off :func:`cluster_sums` as its transpose H'U.
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
    EmptyClusterError/BadLabelError for invalid labels.
    """
    h = make_indicator(labels, basis.k)
    cross = float(np.sum(cluster_sums(basis.matrix, h.labels, basis.k, h.values) ** 2))
    return max(float(basis.k) - cross, 0.0)
