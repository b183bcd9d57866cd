from unittest import mock

import numpy as np
import pytest

from kindicators.core import (
    BadLabelError,
    EmbeddedData,
    EmptyClusterError,
    IndicatorMatrix,
    RankDeficientError,
    RelaxedAssignment,
    BinaryIndicator,
    _readonly,
    cluster_sums,
    fix_column_signs,
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
    with pytest.raises(EmptyClusterError) as err:
        make_indicator([0, 0], 2)
    assert err.value.cluster == 1


def test_make_indicator_bad_label():
    with pytest.raises(BadLabelError):
        make_indicator([0, 2], 2)
    with pytest.raises(BadLabelError):
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
    with pytest.raises(RankDeficientError):
        validate_embedding(np.hstack([col, col]))


def test_validate_embedding_skips_the_rank_svd_on_orthonormal_input():
    m = random_orthonormal(50, 6, np.random.default_rng(12))
    with mock.patch.object(np.linalg, "svd", side_effect=np.linalg.svd) as svd:
        out = validate_embedding(m)
        assert svd.call_count == 0
        with pytest.raises(RankDeficientError):
            validate_embedding(np.hstack([m[:, :3], 2.0 * m[:, :3]]))
        assert svd.call_count == 1
    assert not out.orthonormalized
    assert np.array_equal(out.matrix, m)


def test_fix_column_signs_bit_identical_to_signed_product():
    rng = np.random.default_rng(13)
    for m in (rng.standard_normal((300, 7)), np.array([[0.0, -1.0], [0.0, 0.5]])):
        before = m.copy()
        idx = np.argmax(np.abs(m), axis=0)
        signs = np.sign(m[idx, np.arange(m.shape[1])])
        signs[signs == 0] = 1.0
        out = fix_column_signs(m)
        assert np.array_equal(out, m * signs)
        assert np.array_equal(m, before)
        assert not np.shares_memory(out, m)


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


def test_binary_indicator_from_labels():
    b = BinaryIndicator.from_labels([1, 0, 1], 2)
    np.testing.assert_array_equal(b.matrix, [[0, 1], [1, 0], [0, 1]])
    np.testing.assert_array_equal(b.matrix.sum(axis=1), [1, 1, 1])


def test_binary_indicator_rejects_multiple_ones():
    with pytest.raises(ValueError):
        BinaryIndicator(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([0, 1]))


def test_indicator_matrix_rejects_invalid_partitions():
    ok = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        IndicatorMatrix(np.array([0, 1]), np.array([1.0, 0.0]))  # a zero weight
    with pytest.raises(ValueError):
        IndicatorMatrix(np.array([0, 1]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        IndicatorMatrix(np.array([0, 0, 1]), np.array([0.5, 0.5, 1.0]))  # column norm != 1
    with pytest.raises(ValueError):
        IndicatorMatrix(np.array([0, 1]), np.array([1.0]))
    with pytest.raises(EmptyClusterError) as err:
        IndicatorMatrix(np.array([0, 2]), ok)
    assert err.value.cluster == 1
    with pytest.raises(BadLabelError):
        IndicatorMatrix(np.array([-1, 0]), ok)
    h = IndicatorMatrix(np.array([1, 0]), ok)
    assert (h.n, h.k) == (2, 2)


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
