"""Deterministic generator for separable spherical-cluster benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _ROW_BLOCK,
    EmbeddedData,
    _fix_column_signs_in_place,
    _readonly,
    require_counts,
    require_positive,
)
from .projections import GRAM_EIGH_RATIO


@dataclass
class SynthSpec:
    """Parameters for the separable-cluster generator.

    Cluster centers are scaled standard-basis directions with pairwise
    distance exactly 2; each cluster's points sit on the sphere of radius
    `rho` around its center. Any `rho < 1` keeps the clusters disjoint.
    """

    k: int
    per_cluster: int = 40
    rho: float = 0.33
    ambient_dim: int = 300
    seed: int = 0

    def __post_init__(self):
        require_counts(2, k=self.k)
        require_counts(1, per_cluster=self.per_cluster, ambient_dim=self.ambient_dim)
        require_counts(0, seed=self.seed)
        require_positive(rho=self.rho)
        if self.ambient_dim < self.k:
            raise ValueError("ambient_dim must be >= k")
        if self.k * self.per_cluster * self.ambient_dim * 8 > np.iinfo(np.intp).max:
            raise ValueError("k * per_cluster * ambient_dim is too large for one array")


@dataclass(eq=False)
class SynthDataset:
    raw: np.ndarray
    truth: np.ndarray
    embedded: EmbeddedData

    def __post_init__(self):
        self.raw = _readonly(self.raw)
        self.truth = _readonly(self.truth, dtype=int)


def generate(spec: SynthSpec) -> SynthDataset:
    """Sample the benchmark dataset for `spec`.

    Returns the raw ambient-space points, the ground-truth labels (cluster j
    owns rows j*per_cluster..(j+1)*per_cluster-1), and the embedding given by
    the k leading left singular vectors of the raw matrix with a fixed column
    sign convention. The vectors come from the eigendecomposition of the
    d x d Gram matrix (n x n when n < d), or from the thin SVD when that Gram
    is ill conditioned (:func:`_leading_left_vectors`). The dataset keeps
    the raw matrix, the only n x d array. When n >= d the Gram route's one
    n x k array, the product raw V sign-fixed in place, is kept without a
    copy; when n < d the vectors are k columns of the n x n eigenvectors,
    and the SVD fallback's k columns of its thin factor, and either is
    copied once. The rest is O(min(n, d)^2), and the SVD fallback also holds
    its thin factor. Identical specs give bit-identical
    `raw` and `truth` under any BLAS configuration, and a bit-identical
    embedding under a fixed one (library, version and thread count).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.k * spec.per_cluster
    truth = np.repeat(np.arange(spec.k), spec.per_cluster)
    raw = rng.standard_normal((n, spec.ambient_dim))
    for start in range(0, n, _ROW_BLOCK):
        block = raw[start : start + _ROW_BLOCK]
        block /= np.linalg.norm(block, axis=1)[:, None]
    # Scale the unit directions by rho, then move each point to its center
    # sqrt(2) e_truth, all in the one n x d buffer.
    raw *= spec.rho
    raw[np.arange(n), truth] += np.sqrt(2.0)
    left = _fix_column_signs_in_place(_leading_left_vectors(raw, spec.k))
    left.setflags(write=False)
    embedded = EmbeddedData(left)
    raw.setflags(write=False)
    return SynthDataset(raw=raw, truth=truth, embedded=embedded)


def _leading_left_vectors(raw: np.ndarray, k: int) -> np.ndarray:
    """The k leading left singular vectors of `raw`, from the eigendecomposition
    of its smaller Gram matrix.

    With raw'raw = V L V' (d x d) the vectors are raw V_k L_k^(-1/2); when
    n < d the eigenvectors of raw raw' are the vectors themselves. Their
    columns are orthonormal to about eps * L_1 / L_k, and each lies within
    about eps * L_1 / gap of the exact one (Golub & Van Loan, Matrix
    Computations, 8.6), so that route is taken only when L_k exceeds
    GRAM_EIGH_RATIO times L_1. Any other input takes the thin SVD of `raw`.
    """
    wide = raw.shape[0] < raw.shape[1]
    gram = raw @ raw.T if wide else raw.T @ raw
    lam, vectors = np.linalg.eigh(gram)
    if lam[-k] > GRAM_EIGH_RATIO * lam[-1]:
        top = vectors[:, ::-1][:, :k]
        if wide:
            return top
        left = raw @ top
        left /= np.sqrt(lam[::-1][:k])
        return left
    left, _, _ = np.linalg.svd(raw, full_matrices=False)
    return left[:, :k]
