"""Subspace-matching clustering toolkit.

Clusters column-orthonormal embeddings by matching the data range to the
range of an indicator matrix via double-layer alternating projections, with
k-means and spectral-rotation baselines, a spectral-embedding front end, a
deterministic synthetic benchmark generator, and evaluation utilities.
"""

from .baselines import KmeansParams, SrParams, kmeans_solve, lloyd_solve, sr_solve
from .core import (
    ClusteringError,
    ClusterResult,
    EmbeddedData,
    IndicatorMatrix,
    RelaxedAssignment,
    SolverTrace,
    validate_embedding,
)
from .embedding import SimilarityGraph, knn_graph, spectral_embed
from .evaluation import SoftIndicator, accuracy, kind_objective, kmeans_objective, soft_indicator
from .kindap import KindapParams, kindap_solve, warm_start_centers
from .synthgen import SynthDataset, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "ClusteringError",
    "ClusterResult",
    "EmbeddedData",
    "IndicatorMatrix",
    "KindapParams",
    "KmeansParams",
    "RelaxedAssignment",
    "SimilarityGraph",
    "SoftIndicator",
    "SolverTrace",
    "SrParams",
    "SynthDataset",
    "SynthSpec",
    "accuracy",
    "generate",
    "kind_objective",
    "kindap_solve",
    "kmeans_objective",
    "kmeans_solve",
    "knn_graph",
    "lloyd_solve",
    "soft_indicator",
    "spectral_embed",
    "sr_solve",
    "validate_embedding",
    "warm_start_centers",
]
