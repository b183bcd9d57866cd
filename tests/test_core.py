from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from kindicators.core import (
    ClusteringError,
    ClusterResult,
    EmbeddedData,
    IndicatorMatrix,
    NumericalError,
    RelaxedAssignment,
    BinaryIndicator,
    _ROW_BLOCK,
    _fix_column_signs_in_place,
    _readonly,
    cluster_sums,
    make_indicator,
    validate_embedding,
)

from oracles import random_orthonormal, reference_make_indicator


def test_cluster_sums_bit_identical_to_add_at():
    rng = np.random.default_rng(8)
    for n, d, k in ((20_000, 50, 50), (4_000, 100, 100), (7, 3, 5)):
        x = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
        reference = np.zeros((k, d))
        np.add.at(reference, labels, x)
        assert np.array_equal(cluster_sums(x, labels, k), reference)
        weights = rng.uniform(0.1, 1.0, size=n)
        weighted = np.zeros((k, d))
        np.add.at(weighted, labels, weights[:, None] * x)
        assert np.array_equal(cluster_sums(x, labels, k, weights), weighted)


def test_make_indicator_singletons():
    h = make_indicator([0, 1], 2)
    assert np.array_equal(h.matrix, np.eye(2))
    assert np.array_equal(h.labels, [0, 1])


def test_make_indicator_normalized_values():
    h = make_indicator([0, 0, 1], 2)
    expected = np.array([[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0], [0, 1]])
    np.testing.assert_allclose(h.matrix, expected)
    assert np.array_equal(h.cluster_sizes, [2, 1])


def test_make_indicator_empty_cluster():
    with pytest.raises(ClusteringError, match="^cluster 1 is empty$"):
        make_indicator([0, 0], 2)


@pytest.mark.parametrize(
    "k, message",
    [(0, "k must be >= 1, got 0"), (True, "k must be an integer, got True"),
     (2.0, "k must be an integer, got 2.0")],
    ids=["zero", "bool", "float"],
)
def test_make_indicator_rejects_bad_k(k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_indicator([0, 0], k)


@pytest.mark.parametrize(
    "labels, k, message",
    [([], 2, "labels must be a nonempty 1-D sequence"),
     ([[0, 1]], 2, "labels must be a nonempty 1-D sequence"),
     ([0, 2, 2], 3, "cluster 1 is empty"), ([0, 1, 1], 4, "cluster 2 is empty")],
    ids=["empty", "two_d", "inner_cluster_empty", "trailing_clusters_empty"],
)
def test_make_indicator_rejects_bad_labels(labels, k, message):
    # Split between make_indicator (checks that need k) and IndicatorMatrix.
    with pytest.raises(ClusteringError, match=f"^{message}$"):
        make_indicator(labels, k)


def test_make_indicator_bad_label():
    with pytest.raises(ClusteringError, match=r"^labels must lie in 0\.\.1$"):
        make_indicator([0, 2], 2)
    with pytest.raises(ClusteringError, match=r"^labels must lie in 0\.\.1$"):
        make_indicator([-1, 0], 2)


def test_make_indicator_label_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 30))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(labels)
        h = make_indicator(labels, k)
        assert np.array_equal(h.labels, labels)
        assert np.array_equal(np.argmax(h.matrix, axis=1), labels)


def test_indicator_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 20))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        h = make_indicator(labels, k)
        assert np.all(h.matrix >= 0)
        np.testing.assert_allclose(h.matrix.T @ h.matrix, np.eye(k), atol=1e-10)
        assert np.all(h.values > 0)
        assert np.array_equal(h.matrix, reference_make_indicator(labels, k).matrix)


def test_validate_embedding_passes_orthonormal_through():
    m = np.zeros((4, 2))
    m[0, 0] = m[1, 1] = 1.0
    out = validate_embedding(m)
    assert not out.orthonormalized
    np.testing.assert_array_equal(out.matrix, m)


def test_validate_embedding_rescales_columns():
    rng = np.random.default_rng(3)
    q = random_orthonormal(4, 2, rng)
    out = validate_embedding(3.0 * q)
    assert out.orthonormalized
    np.testing.assert_allclose(np.linalg.norm(out.matrix, axis=0), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(out.matrix, q, atol=1e-10)


def test_validate_embedding_rank_deficient():
    col = np.arange(1.0, 5.0)[:, None]
    with pytest.raises(NumericalError, match="^numerical rank < 2: smallest singular value "):
        validate_embedding(np.hstack([col, col]))


def test_validate_embedding_skips_the_rank_svd_on_orthonormal_input():
    m = random_orthonormal(50, 6, np.random.default_rng(12))
    with mock.patch.object(np.linalg, "svd", side_effect=np.linalg.svd) as svd:
        out = validate_embedding(m)
        assert svd.call_count == 0
        with pytest.raises(NumericalError, match="^numerical rank < 6: "):
            validate_embedding(np.hstack([m[:, :3], 2.0 * m[:, :3]]))
        assert svd.call_count == 1
    assert not out.orthonormalized
    assert np.array_equal(out.matrix, m)


def test_fix_column_signs_bit_identical_to_signed_product():
    rng = np.random.default_rng(13)
    for m in (rng.standard_normal((300, 7)), np.array([[0.0, -1.0], [0.0, 0.5]])):
        idx = np.argmax(np.abs(m), axis=0)
        signs = np.sign(m[idx, np.arange(m.shape[1])])
        signs[signs == 0] = 1.0
        out = _fix_column_signs_in_place(m.copy())
        assert np.array_equal(out, m * signs)


def test_fix_column_signs_takes_the_first_largest_across_row_blocks():
    # Rows span several of the in-place scan's blocks. Column 0 ties -5
    # (first) with +5 (a later block), column 1 has its largest in the last
    # block, column 2 is all zero, and column 3 holds NaN after its largest.
    m = np.random.default_rng(14).uniform(-1.0, 1.0, size=(3 * _ROW_BLOCK + 5, 4))
    m[100, 0], m[2 * _ROW_BLOCK + 1, 0] = -5.0, 5.0
    m[-1, 1] = -7.0
    m[:, 2] = 0.0
    m[10, 3], m[_ROW_BLOCK + 3, 3] = -9.0, np.nan
    idx = np.argmax(np.abs(m), axis=0)
    signs = np.sign(m[idx, np.arange(4)])
    signs[signs == 0] = 1.0
    out = _fix_column_signs_in_place(m.copy())
    assert np.array_equal(out, m * signs, equal_nan=True)
    assert out[100, 0] == 5.0 and out[-1, 1] == 7.0 and np.isnan(out[:, 3]).all()


def test_readonly_copies_all_but_a_frozen_owner():
    owner = np.arange(6.0)
    owner.setflags(write=False)
    assert _readonly(owner) is owner
    writable = np.arange(6.0)
    frozen_view = writable[:]
    frozen_view.setflags(write=False)
    for given in (writable, frozen_view, owner.astype(int)):
        out = _readonly(given)
        assert not np.shares_memory(out, given)
        assert not out.flags.writeable and out.dtype == float


def test_validate_embedding_rejects_bad_shapes():
    with pytest.raises(ValueError):
        validate_embedding(np.ones((2, 3)))
    with pytest.raises(ValueError):
        validate_embedding(np.ones((5, 1)))


@pytest.mark.parametrize(
    "build, matrix, message",
    [
        (EmbeddedData, np.ones(4), "embedded data must be a 2-D matrix"),
        (EmbeddedData, np.eye(3)[:2], "need n >= k >= 2, got shape 2x3"),
        (validate_embedding, np.ones(4), "embedding input must be a 2-D matrix"),
        (validate_embedding, np.array([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]]),
         "embedding input must be finite"),
    ],
    ids=["embedded_data_1d", "embedded_data_n_below_k", "validate_1d", "validate_non_finite"],
)
def test_embedding_inputs_rejected_with_their_message(build, matrix, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(matrix)


def test_validate_embedding_output_invariants():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        d = int(rng.integers(2, min(n, 6) + 1))
        m = rng.standard_normal((n, d)) * rng.uniform(0.1, 50)
        out = validate_embedding(m)
        gram = out.matrix.T @ out.matrix
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-8
        assert np.all(np.abs(out.matrix) <= 1.0 + 1e-12)


def test_embedded_data_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        EmbeddedData(np.ones((4, 2)))


def test_relaxed_assignment_bounds():
    RelaxedAssignment(np.array([[0.0, 1.0], [0.5, 0.25]]))
    with pytest.raises(ValueError):
        RelaxedAssignment(np.array([[-0.1, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        RelaxedAssignment(np.array([[0.1, 1.5], [0.5, 0.5]]))


def test_embedded_data_rejects_nan():
    # max(|U'U - I|) is NaN here, and NaN > tol is False as well as NaN <= tol.
    with pytest.raises(ValueError, match="orthonormal"):
        EmbeddedData(np.full((4, 2), np.nan))
    basis = random_orthonormal(6, 3, np.random.default_rng(1))
    basis[2, 1] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        EmbeddedData(basis)


def test_relaxed_assignment_rejects_nan():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RelaxedAssignment(np.full((3, 2), np.nan))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RelaxedAssignment(np.array([[0.0, 1.0], [np.nan, 0.25]]))
    assert RelaxedAssignment(np.empty((0, 2))).n == 0


def test_binary_indicator_from_labels():
    b = BinaryIndicator.from_labels([1, 0, 1], 2)
    np.testing.assert_array_equal(b.matrix, [[0, 1], [1, 0], [0, 1]])
    np.testing.assert_array_equal(b.matrix.sum(axis=1), [1, 1, 1])


def test_binary_indicator_rejects_multiple_ones():
    with pytest.raises(ValueError):
        BinaryIndicator(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([0, 1]))


def test_indicator_matrix_rejects_invalid_partitions():
    with pytest.raises(ClusteringError, match="^cluster 1 is empty$"):
        IndicatorMatrix(np.array([0, 2]))
    with pytest.raises(ClusteringError, match="^labels must be nonnegative$"):
        IndicatorMatrix(np.array([-1, 0]))
    h = IndicatorMatrix(np.array([1, 0]))
    assert (h.n, h.k) == (2, 2)


def test_indicator_matrix_derives_its_values_from_the_labels():
    h = IndicatorMatrix([1, 0, 1, 1])
    assert [f.name for f in fields(IndicatorMatrix)] == ["labels"]
    assert np.array_equal(h.values, 1.0 / np.sqrt([3, 1, 3, 3]))
    assert np.array_equal(h.matrix, make_indicator([1, 0, 1, 1], 2).matrix)


@pytest.mark.parametrize(
    "labels, kind, kmeans, error, message",
    [
        ([0, -1], 0.0, 0.0, ClusteringError, "labels must be nonnegative"),
        ([0, 1], np.nan, 0.0, ValueError, "kind objective must be finite"),
        ([0, 1], np.inf, 0.0, ValueError, "kind objective must be finite"),
        ([0, 1], None, np.nan, ValueError, "k-means objective must be finite and nonnegative"),
        ([0, 1], None, -1.0, ValueError, "k-means objective must be finite and nonnegative"),
    ],
    ids=["negative_label", "nan_kind", "inf_kind", "nan_kmeans", "negative_kmeans"],
)
def test_cluster_result_rejects_bad_values(labels, kind, kmeans, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        ClusterResult(labels, kind, kmeans)


def test_types_are_readonly():
    h = make_indicator([0, 1, 1], 2)
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0
    with pytest.raises(ValueError):
        h.values[0] = 5.0
    with pytest.raises(ValueError):
        h.labels[0] = 1
    emb = validate_embedding(np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        emb.matrix[0, 0] = 5.0
