"""The closed-form projection onto the rotations, for column-orthonormal bases.

The Procrustes step reads only the k x k product B'T; nothing here
materializes an n x n projector, so memory stays linear in the number of
objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _readonly

# Below this singular value the Procrustes projection is treated as non-unique.
DEGENERATE_SV_TOL = 1e-12

# The polar factor comes from the eigendecomposition of M'M only when its
# smallest eigenvalue exceeds this fraction of its largest: squaring the
# condition number then costs at most about eps / GRAM_EIGH_RATIO in R.
GRAM_EIGH_RATIO = 1e-3
# The eigendecomposition route also needs k at least this large. Below it
# the k x k products around the eigendecomposition cost about what it saves,
# and on a nearly orthogonal M, as at the end of a KindAP phase, the SVD is
# faster (the route takes 1.2x its time at k = 20).
GRAM_EIGH_MIN_K = 32
# M'M with a diagonal entry below this was formed with underflowing products,
# whose absolute errors can swamp its eigenvalues.
_GRAM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(eq=False)
class RotatedBasis:
    """An orthonormal basis U = B R obtained by rotating a reference basis B."""

    matrix: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        self.matrix = _readonly(self.matrix)
        self.rotation = _readonly(self.rotation)
        n, k = self.matrix.shape
        if self.rotation.shape != (k, k):
            raise ValueError("rotation must be k x k")
        if not np.max(np.abs(self.matrix.T @ self.matrix - np.eye(k))) <= 1e-10:
            raise ValueError("rotated basis columns must be orthonormal")
        if not np.max(np.abs(self.rotation.T @ self.rotation - np.eye(k))) <= 1e-10:
            raise ValueError("rotation must be orthogonal")


def procrustes_rotation(cross) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal k x k rotation R minimizing ||B R - T||_F, from the k x k product B'T.

    B is orthonormal; the caller forms `cross` = B'T (a GEMM, or
    :func:`~kindicators.core.cluster_sums` when T is an indicator), and R is
    its polar factor. Returns (R, sigma) where sigma holds the singular values
    of `cross` in descending order; their sum is the nuclear norm used for
    objective accounting, and a tiny sigma[-1] signals a (near-)non-unique
    projection.

    For a well-conditioned M = `cross` with k >= GRAM_EIGH_MIN_K,
    R = M V L^(-1/2) V' and sigma = sqrt(L) come from the eigendecomposition
    M'M = V L V' (Higham 1986), in about 0.6 of the SVD's time at k = 100.
    That route is taken only when the smallest eigenvalue exceeds
    GRAM_EIGH_RATIO times the largest. The diagonal of M'M bounds both
    (lambda_min <= min diag, lambda_max >= max diag), so a matrix whose
    diagonal already fails the ratio, or lies in the underflow range, skips
    the eigendecomposition. Every other input goes through the SVD, NaN,
    zero and rank-deficient ones included.
    """
    if cross.shape[1] >= GRAM_EIGH_MIN_K:
        gram = cross.T @ cross
        diag = np.diagonal(gram)
        low = diag.min()
        if low > _GRAM_FLOOR and low > GRAM_EIGH_RATIO * diag.max():
            lam, v = np.linalg.eigh(gram)
            if lam[0] > GRAM_EIGH_RATIO * lam[-1]:
                root = np.sqrt(lam)
                return (cross @ (v / root)) @ v.T, root[::-1]
    p, sigma, qt = np.linalg.svd(cross)
    return p @ qt, sigma
