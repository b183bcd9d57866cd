import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from kindicators import embedding
from kindicators.core import ClusteringError, NumericalError, validate_embedding
from kindicators.embedding import SimilarityGraph, knn_graph, spectral_embed
from kindicators.evaluation import accuracy
from kindicators.kindap import kindap_solve
from kindicators.synthgen import SynthSpec, generate

from oracles import dense_knn_graph, dense_spectral_embed, laplacian_eigenvalues

# The raw_pipeline benchmark dataset: 2,000 points in 300 dimensions whose
# kNN graph (knn=10) has exactly k=20 components.
RAW_PIPELINE_SPEC = SynthSpec(k=20, per_cluster=100, rho=0.66)
RAW_PIPELINE_KNN = 10
RAW_PIPELINE_EDGES = 11_644


def _brute_force_knn(data, knn):
    n = len(data)
    w = np.zeros((n, n))
    for i in range(n):
        pairs = sorted(
            (np.linalg.norm(data[i] - data[j]), j) for j in range(n) if j != i
        )
        for _, j in pairs[:knn]:
            w[i, j] = 1.0
    return np.maximum(w, w.T)


def test_knn_graph_tie_rule_equidistant_triangle():
    # Standard basis vectors are mutually equidistant with squared distance
    # exactly 2, so every neighbor choice is a tie, resolved toward the
    # lowest index.
    data = np.eye(3)
    w = knn_graph(data, 1).weights
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0  # 0 and 1 pick each other
    expected[2, 0] = expected[0, 2] = 1.0  # 2 picks 0
    np.testing.assert_array_equal(w, expected)


def test_knn_graph_two_far_pairs_is_block_diagonal():
    data = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
    w = knn_graph(data, 1).weights
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1.0
    expected[2, 3] = expected[3, 2] = 1.0
    np.testing.assert_array_equal(w, expected)


def test_knn_graph_matches_brute_force():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 3))
    for knn in (1, 3, 7):
        w = knn_graph(data, knn).weights
        np.testing.assert_array_equal(w, _brute_force_knn(data, knn))


def test_knn_graph_gaussian_weights_preserve_sparsity():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((15, 2))
    binary = knn_graph(data, 3).weights
    gaussian = knn_graph(data, 3, weight="gaussian").weights
    np.testing.assert_array_equal(gaussian > 0, binary > 0)
    assert np.all(gaussian <= 1.0)
    np.testing.assert_allclose(gaussian, gaussian.T)


@pytest.mark.parametrize(
    "knn, message",
    [(2.5, "knn must be an integer, got 2.5"), (True, "knn must be an integer, got True"),
     (0, "knn must be >= 1, got 0")],
    ids=["float", "bool", "zero"],
)
def test_knn_graph_rejects_a_bad_knn_count(knn, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        knn_graph(np.zeros((4, 2)), knn)


@pytest.mark.parametrize(
    "data, weight, message",
    [(np.zeros(4), "binary", "data must be a 2-D matrix"),
     (np.zeros((4, 2)), "cosine", r"weight must be one of \('binary', 'gaussian'\)")],
    ids=["one_d", "unknown_weight"],
)
def test_knn_graph_rejects_bad_data_and_weight(data, weight, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        knn_graph(data, 1, weight=weight)


@pytest.mark.parametrize(
    "k, message",
    [(2.5, "k must be an integer, got 2.5"), (True, "k must be an integer, got True"),
     (1, "k must be >= 2, got 1"), (5, "need 2 <= k <= n, got k=5, n=4")],
    ids=["float", "bool", "one", "above_n"],
)
def test_spectral_embed_rejects_a_bad_k_count(k, message):
    graph = knn_graph(np.arange(8.0).reshape(4, 2), 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        spectral_embed(graph, k)


def test_knn_graph_validates_knn():
    data = np.zeros((4, 2))
    with pytest.raises(ValueError):
        knn_graph(data, 0)
    with pytest.raises(ValueError):
        knn_graph(data, 4)


def _component_graph(sizes, rng):
    """Block-diagonal graph of dense-ish components with the given sizes."""
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = rng.uniform(0.5, 1.0, size=(size, size))
        block = np.triu(block, 1)
        block = block + block.T
        w[start : start + size, start : start + size] = block
        start += size
    return SimilarityGraph(w)


def test_disconnected_components_give_zero_eigenvalues():
    rng = np.random.default_rng(2)
    graph = _component_graph([5, 4, 6], rng)
    eigenvalues = laplacian_eigenvalues(graph)
    assert np.all(eigenvalues[:3] <= 1e-10)
    assert eigenvalues[3] > 1e-6


def test_complete_graph_spectrum():
    n = 4
    w = np.ones((n, n)) - np.eye(n)
    graph = SimilarityGraph(w)
    eigenvalues = laplacian_eigenvalues(graph)
    assert eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    # All nonzero eigenvalues of the normalized Laplacian of K_n equal n/(n-1).
    np.testing.assert_allclose(eigenvalues[1:], n / (n - 1), atol=1e-12)
    embedded = spectral_embed(graph, 2)
    dense_vals, dense_vecs = np.linalg.eigh(
        np.eye(n) - w / (n - 1)
    )
    # The bottom eigenvector is unique up to sign; compare the spanned line.
    cos = abs(float(embedded.matrix[:, 0] @ dense_vecs[:, 0]))
    assert cos == pytest.approx(1.0, abs=1e-10)
    assert dense_vals[1] == pytest.approx(n / (n - 1), abs=1e-12)


def test_laplacian_eigenvalue_range():
    rng = np.random.default_rng(3)
    for _ in range(10):
        data = rng.standard_normal((20, 3))
        graph = knn_graph(data, 4)
        eigenvalues = laplacian_eigenvalues(graph)
        assert eigenvalues[0] >= -1e-10
        assert eigenvalues[-1] <= 2.0 + 1e-10


def test_spectral_embed_output_contract():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((25, 4))
    graph = knn_graph(data, 5)
    for row_normalize in (False, True):
        embedded = spectral_embed(graph, 3, row_normalize=row_normalize)
        gram = embedded.matrix.T @ embedded.matrix
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-8
        # Re-validation keeps it unchanged.
        again = validate_embedding(embedded.matrix)
        assert not again.orthonormalized


def test_spectral_embed_rejects_isolated_vertex():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 0.0
    graph = SimilarityGraph(w)
    with pytest.raises(ClusteringError, match=r"^vertex 2 is isolated \(degree 0\)$"):
        spectral_embed(graph, 2)


def test_embedding_clusters_disconnected_components():
    rng = np.random.default_rng(5)
    sizes = [6, 8, 6]
    graph = _component_graph(sizes, rng)
    truth = np.repeat(np.arange(3), sizes)
    embedded = spectral_embed(graph, 3)
    result = kindap_solve(embedded)
    assert accuracy(result.labels, truth) == 1.0


def test_embedding_permutation_gives_same_partition():
    rng = np.random.default_rng(6)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    data = np.vstack([c + rng.normal(0, 0.3, size=(8, 2)) for c in centers])
    truth = np.repeat(np.arange(3), 8)
    perm = rng.permutation(len(data))
    labels_base = kindap_solve(spectral_embed(knn_graph(data, 4), 3)).labels
    labels_perm = kindap_solve(spectral_embed(knn_graph(data[perm], 4), 3)).labels
    assert accuracy(labels_base, truth) == 1.0
    assert accuracy(labels_perm, truth[perm]) == 1.0


# ---------------------------------------------------------------------------
# The sparse front end against the dense oracle


def _distance(a, b) -> float:
    """Rotation-minimal subspace distance min_R ||a R - b||_F, accurate near 0.

    With s the sines of the principal angles (singular values of the part of
    b outside range(a)), the squared distance is sum(2 - 2 cos) written as
    sum(2 s^2 / (1 + cos)), which keeps full relative precision for tiny
    angles where the 2k - 2 ||a'b||_* form cancels to about 1e-8.
    """
    s = np.minimum(np.linalg.svd(b - a @ (a.T @ b), compute_uv=False), 1.0)
    return float(np.sqrt(np.sum(2.0 * s**2 / (1.0 + np.sqrt(1.0 - s**2)))))


@pytest.fixture(scope="module")
def raw_pipeline():
    data = generate(RAW_PIPELINE_SPEC)
    return data, knn_graph(data.raw, RAW_PIPELINE_KNN), dense_knn_graph(data.raw, RAW_PIPELINE_KNN)


def _lattice():
    """A 5 x 5 integer grid plus two duplicated points: exact distance ties everywhere."""
    grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    return np.vstack([grid, grid[[7, 18]]])


@pytest.mark.parametrize("knn", [1, 4, 9])
@pytest.mark.parametrize("tile_rows", [None, 1, 3, 48])
def test_knn_graph_edges_equal_dense_oracle(monkeypatch, knn, tile_rows):
    rng = np.random.default_rng(11)
    for data in (rng.standard_normal((60, 5)), _lattice(), np.eye(12)):
        if tile_rows is not None:
            # Tiles of `tile_rows` rows, selected in chunks of a sixteenth of
            # them (1 row, or 3 for 48-row tiles), so ties and neighbors cross
            # both tile and chunk edges.
            monkeypatch.setattr(embedding, "TILE_ENTRIES", tile_rows * len(data))
        np.testing.assert_array_equal(
            knn_graph(data, knn).weights, dense_knn_graph(data, knn).weights
        )


def test_knn_graph_lattice_ties_match_brute_force():
    data = _lattice()
    for knn in (2, 5):
        np.testing.assert_array_equal(knn_graph(data, knn).weights, _brute_force_knn(data, knn))


def test_knn_graph_raw_pipeline_edges_equal_dense_oracle(raw_pipeline):
    _, graph, dense = raw_pipeline
    assert graph.matrix.nnz // 2 == RAW_PIPELINE_EDGES
    np.testing.assert_array_equal(graph.weights, dense.weights)


def test_knn_graph_gaussian_weights_match_dense_oracle():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((200, 6))
    for knn in (3, 10):
        got = knn_graph(data, knn, weight="gaussian").weights
        want = dense_knn_graph(data, knn, weight="gaussian").weights
        np.testing.assert_array_equal(got > 0, want > 0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_knn_graph_peak_allocation_is_blocked():
    # One dense 6,000 x 6,000 float64 array is 288 MB; the blocked build
    # holds a 4M-entry tile (32 MB) plus O(chunk * n) selection temporaries.
    data = np.random.default_rng(13).standard_normal((6000, 20))
    tracemalloc.start()
    try:
        graph = knn_graph(data, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert graph.matrix.nnz >= 6000 * 10


def test_knn_graph_peak_is_one_tile_at_raw_pipeline_shape(raw_pipeline):
    # At 2,000 x 300 the tile holds every row: 2,000^2 floats, 32 MB. The
    # slack covers the 4.8 MB block x d scaled copy that feeds the GEMM and
    # the O(chunk * n) selection temporaries, not a second tile-sized array.
    raw = raw_pipeline[0].raw
    assert raw.dtype == float and raw.shape == (2000, 300)
    tile = raw.shape[0] ** 2 * 8
    tracemalloc.start()
    try:
        knn_graph(raw, RAW_PIPELINE_KNN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= tile + 8e6


def _blobs(rng, centers, per, scale):
    return np.vstack([c + rng.normal(0, scale, size=(per, len(c))) for c in centers])


def _embedding_cases():
    """(name, data, knn, k): c = k, and c < k both on the Lanczos and the dense path."""
    rng = np.random.default_rng(14)
    return [
        ("c=k raw_pipeline", generate(RAW_PIPELINE_SPEC).raw, RAW_PIPELINE_KNN, 20),
        ("c<k raw_pipeline", generate(RAW_PIPELINE_SPEC).raw, RAW_PIPELINE_KNN, 25),
        ("c<k synth", generate(SynthSpec(k=5, per_cluster=100, rho=0.66)).raw, 10, 8),
        ("c<k blobs", _blobs(rng, rng.normal(0, 3, size=(4, 5)), 150, 1.0), 10, 4),
        ("c=1 gaussian", rng.standard_normal((1500, 10)), 15, 6),
        ("c=1 small dense path", rng.standard_normal((30, 3)), 5, 4),
    ]


@pytest.mark.parametrize("case", _embedding_cases(), ids=lambda c: c[0])
def test_spectral_embed_subspace_matches_dense_oracle(case):
    _, data, knn, k = case
    graph = knn_graph(data, knn)
    eigenvalues = laplacian_eigenvalues(graph)
    assert eigenvalues[k] - eigenvalues[k - 1] > 1e-3  # the bottom-k space is well defined
    got = spectral_embed(graph, k).matrix
    want = dense_spectral_embed(graph, k).matrix
    assert _distance(want, got) <= 1e-8


def test_spectral_embed_dense_and_lanczos_paths_agree(monkeypatch):
    rng = np.random.default_rng(15)
    graph = knn_graph(_blobs(rng, rng.normal(0, 3, size=(3, 4)), 100, 1.0), 8)
    lanczos = spectral_embed(graph, 6).matrix
    monkeypatch.setattr(embedding, "MIN_LANCZOS_VECTORS", 10**6)
    dense = spectral_embed(graph, 6).matrix
    assert _distance(dense, lanczos) <= 1e-8


def test_raw_pipeline_partition_and_iterations_match_dense_oracle(raw_pipeline):
    data, graph, dense_graph = raw_pipeline
    sparse_result = kindap_solve(spectral_embed(graph, RAW_PIPELINE_SPEC.k))
    dense_result = kindap_solve(dense_spectral_embed(dense_graph, RAW_PIPELINE_SPEC.k))
    assert accuracy(sparse_result.labels, dense_result.labels) == 1.0
    assert accuracy(sparse_result.labels, data.truth) == 1.0
    assert sum(sparse_result.trace.inner_iters_per_outer) <= sum(
        dense_result.trace.inner_iters_per_outer
    )


def test_constant_start_lanczos_misses_the_null_space(raw_pipeline):
    # Inside the k-fold eigenvalue 1 of D^-1/2 W D^-1/2, Lanczos from a
    # constant start vector sees one direction; rounding lets only some of
    # the others in. The component null space has all k exactly.
    _, graph, dense = raw_pipeline
    k = RAW_PIPELINE_SPEC.k
    w = graph.matrix
    inv_sqrt = sparse.diags(1.0 / np.sqrt(w.sum(axis=1)))
    values, vectors = eigsh(inv_sqrt @ w @ inv_sqrt, k=k, which="LA", v0=np.ones(w.shape[0]))
    assert np.sum(values > 1.0 - 1e-10) < k
    reference = dense_spectral_embed(dense, k).matrix
    assert _distance(reference, vectors) > 1.0
    assert _distance(reference, spectral_embed(graph, k).matrix) <= 1e-8


def test_null_space_columns_follow_smallest_vertex():
    # Components {0, 3, 5}, {1, 2}, {4, 6}, as triangles and single edges.
    w = np.zeros((7, 7))
    for i, j in [(0, 3), (3, 5), (0, 5), (1, 2), (4, 6)]:
        w[i, j] = w[j, i] = 1.0
    graph = SimilarityGraph(w)
    count, labels = graph.components
    assert count == 3
    np.testing.assert_array_equal(labels, [0, 1, 1, 0, 2, 0, 2])
    for k in (2, 3):
        u = spectral_embed(graph, k).matrix
        expected = np.zeros((7, 3))
        expected[[0, 3, 5], 0] = 1.0 / np.sqrt(3.0)
        expected[[1, 2], 1] = expected[[4, 6], 2] = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(u, expected[:, :k], atol=1e-15)


def test_eigensolver_failure_is_eig_solver_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(embedding, "eigsh", no_convergence)
    graph = knn_graph(np.random.default_rng(16).standard_normal((200, 3)), 8)
    with pytest.raises(NumericalError, match="^eigendecomposition failed: "):
        spectral_embed(graph, 4)


def test_similarity_graph_is_csr_and_checks_its_input():
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    for value in (w, sparse.coo_array(w)):
        graph = SimilarityGraph(value)
        assert isinstance(graph.matrix, sparse.csr_array)
        assert graph.matrix.nnz == 2
        assert not graph.weights.flags.writeable
        assert not graph.matrix.data.flags.writeable
    bad = {
        "square": np.zeros((2, 3)),
        "nonnegative": -w,
        "symmetric": np.array([[0.0, 1.0], [2.0, 0.0]]),
        "diagonal": np.eye(2),
        "finite": np.array([[0.0, np.nan], [np.nan, 0.0]]),
    }
    for word, value in bad.items():
        with pytest.raises(ValueError, match=word):
            SimilarityGraph(value)


def test_knn_graph_rejects_non_finite_data():
    data = np.random.default_rng(17).standard_normal((10, 2))
    data[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        knn_graph(data, 3)


def test_knn_graph_rejects_overflowing_squared_norms():
    data = np.random.default_rng(18).standard_normal((10, 2))
    data[3, 1] = 1e200
    for knn in (1, 5):
        with pytest.raises(ClusteringError, match="rescale"):
            knn_graph(data, knn)
    # Just inside the bound every distance, and so every weight, is finite.
    data[3, 1] = 0.99 * np.sqrt(np.finfo(float).max / 4)
    data[4, 1] = -data[3, 1]
    graph = knn_graph(data, 5, weight="gaussian")
    assert np.all(np.isfinite(graph.matrix.data))


def test_knn_graph_gaussian_needs_positive_bandwidth():
    rng = np.random.default_rng(19)
    data = np.vstack([np.zeros((15, 3)), rng.standard_normal((5, 3))])
    with pytest.raises(ClusteringError, match="--weight binary"):
        knn_graph(data, 3, weight="gaussian")
    assert knn_graph(data, 3).matrix.nnz > 0
