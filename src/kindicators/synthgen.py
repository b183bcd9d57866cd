"""Deterministic generator for separable spherical-cluster benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmbeddedData, _readonly, fix_column_signs


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
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.per_cluster < 1:
            raise ValueError("per_cluster must be >= 1")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.ambient_dim < self.k:
            raise ValueError("ambient_dim must be >= k")


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
    sign convention. Identical specs produce bit-identical datasets.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.k * spec.per_cluster
    truth = np.repeat(np.arange(spec.k), spec.per_cluster)
    raw = rng.standard_normal((n, spec.ambient_dim))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    # Scale the unit directions by rho, then move each point to its center
    # sqrt(2) e_truth, all in the one n x d buffer.
    raw *= spec.rho
    raw[np.arange(n), truth] += np.sqrt(2.0)
    left, _, _ = np.linalg.svd(raw, full_matrices=False)
    embedded = EmbeddedData(fix_column_signs(left[:, : spec.k]))
    return SynthDataset(raw=raw, truth=truth, embedded=embedded)
