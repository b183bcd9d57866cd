import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from kindicators.core import (
    ORTHONORMAL_TOL,
    ClusteringError,
    EmbeddedData,
    RelaxedAssignment,
    make_indicator,
    validate_embedding,
)
from kindicators.evaluation import (
    SoftIndicator,
    accuracy,
    kind_objective,
    kmeans_objective,
    soft_indicator,
)

from oracles import random_orthonormal, reference_accuracy, subspace_distance


def _accuracy_by_permutation(pred, truth):
    """Exhaustive oracle: best relabeling tried one permutation at a time."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    k_pred = pred.max() + 1
    k_truth = truth.max() + 1
    size = max(k_pred, k_truth)
    best = 0
    for perm in permutations(range(size)):
        mapped = np.asarray([perm[p] for p in pred])
        best = max(best, int((mapped == truth).sum()))
    return best / pred.size


def test_accuracy_identity_and_relabeling():
    truth = np.array([0, 1, 2, 1, 0, 2])
    assert accuracy(truth, truth) == 1.0
    relabeled = np.array([2, 0, 1, 0, 2, 1])
    assert accuracy(relabeled, truth) == 1.0


def test_accuracy_worked_example():
    assert accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
    assert _accuracy_by_permutation([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


def test_accuracy_matches_permutation_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(4, 15))
        k_pred = int(rng.integers(2, 5))
        k_truth = int(rng.integers(2, 5))
        pred = rng.integers(0, k_pred, size=n)
        truth = rng.integers(0, k_truth, size=n)
        assert accuracy(pred, truth) == pytest.approx(
            _accuracy_by_permutation(pred, truth), abs=1e-12
        )


def test_accuracy_symmetric_under_relabeling_both_sides():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 3, size=20)
    pred = rng.integers(0, 3, size=20)
    base = accuracy(pred, truth)
    relabel = np.array([2, 0, 1])
    assert accuracy(relabel[pred], truth) == pytest.approx(base, abs=1e-12)
    assert accuracy(pred, relabel[truth]) == pytest.approx(base, abs=1e-12)


def test_accuracy_memory_bounded_by_distinct_ids():
    # Indexed by raw id, the confusion matrix for pred id 3,000,000,000
    # against truth ids {0, 1} has (3e9 + 1) x 2 float64 cells: 44.7 GiB.
    pred = np.array([3_000_000_000, 3_000_000_000, 0, 0, 0])
    truth = np.array([1, 1, 0, 0, 1])
    tracemalloc.start()
    try:
        score = accuracy(pred, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert score == 0.8
    assert peak < 1e6


def _random_labelings(rng, count):
    """Labelings from 1 to about 300 distinct ids a side, independent or mostly agreeing."""
    for _ in range(count):
        n = int(rng.integers(1, 700))
        pred = rng.integers(0, int(rng.integers(1, 300)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 300)), size=n)
        if rng.random() < 0.5:
            truth = np.where(rng.random(n) < rng.random(), pred * 7 % 301, truth)
        yield pred, truth


def test_accuracy_matches_dense_reference():
    # The sparse matching gives the first-written dense score.
    rng = np.random.default_rng(40)
    for pred, truth in _random_labelings(rng, 300):
        assert accuracy(pred, truth) == reference_accuracy(pred, truth)


def test_accuracy_sparse_memory_at_20000_distinct_ids():
    # A dense confusion matrix would need 20,000 x 20,000 int64 cells: 3.2 GB.
    rng = np.random.default_rng(41)
    pred = rng.permutation(20_000)
    ids = np.arange(20_000)
    for truth, expected in ((ids, 1.0), (ids // 2, 0.5), (ids % 3, 3 / 20_000)):
        tracemalloc.start()
        try:
            score = accuracy(pred, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert score == expected
        assert peak < 10e6


def test_accuracy_depends_only_on_the_partition():
    rng = np.random.default_rng(2)
    sparse_ids = np.array([0, 7, 123_456, 3_000_000_000, 2**62])
    for _ in range(20):
        pred = rng.integers(0, 5, size=30)
        truth = rng.integers(0, 4, size=30)
        base = accuracy(pred, truth)
        assert accuracy(sparse_ids[pred], truth) == base
        assert accuracy(pred, sparse_ids[truth]) == base


def test_accuracy_length_mismatch():
    with pytest.raises(ClusteringError, match=r"^label lengths differ: \(2,\) vs \(3,\)$"):
        accuracy([0, 1], [0, 1, 1])


@pytest.mark.parametrize(
    "pred, truth, message",
    [([], [], "labels must be a nonempty 1-D sequence"),
     ([0, -1], [0, 1], "label -1 at index 1 is not an integer id"),
     ([0, 1], [-1, 0], "label -1 at index 0 is not an integer id"),
     # An int cast used to truncate these to [0, 1, 1], scoring 1.0.
     ([0.9, 1.2, 1.9], [0, 1, 1], "label 0.9 at index 0 is not an integer id"),
     ([0, 1, 1], [0, 1, np.nan], "label nan at index 2 is not an integer id"),
     ([0, np.inf], [0, 1], "label inf at index 1 is not an integer id")],
    ids=["empty", "negative_pred", "negative_truth", "fractional_pred", "nan_truth", "inf_pred"],
)
def test_accuracy_rejects_bad_labels(pred, truth, message):
    with pytest.raises(ClusteringError, match=f"^{message}$"):
        accuracy(pred, truth)


def test_soft_indicator_examples():
    s = soft_indicator(RelaxedAssignment(np.array([[1.0, 0.0, 0.0]]))).s
    assert s[0] == 1.0
    s = soft_indicator(RelaxedAssignment(np.array([[0.5, 0.5, 0.1]]))).s
    assert s[0] == 0.0
    s = soft_indicator(RelaxedAssignment(np.array([[0.8, 0.2]]))).s
    assert s[0] == pytest.approx(0.75)


def test_soft_indicator_zero_row():
    # A row with no positive entry prefers no cluster: confidence 0.
    s = soft_indicator(RelaxedAssignment(np.array([[0.5, 0.2], [0.0, 0.0]]))).s
    assert s.tolist() == [1.0 - 0.2 / 0.5, 0.0]


def test_soft_indicator_matches_full_sort():
    # The two largest entries per row, taken by partition, give the same
    # bits as a full row sort; repeated values make ties.
    rng = np.random.default_rng(3)
    n_mat = rng.integers(0, 4, size=(200, 6)) / 3.0
    n_mat[0] = 0.0
    ordered = np.sort(n_mat, axis=1)
    positive = ordered[:, -1] > 0
    expected = np.zeros(200)
    expected[positive] = 1.0 - ordered[positive, -2] / ordered[positive, -1]
    assert soft_indicator(RelaxedAssignment(n_mat)).s.tobytes() == expected.tobytes()


def test_soft_indicator_range():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_mat = rng.uniform(0.01, 1.0, size=(rng.integers(2, 20), rng.integers(2, 6)))
        s = soft_indicator(RelaxedAssignment(n_mat)).s
        assert np.all(s >= 0.0)
        assert np.all(s <= 1.0)


def test_soft_indicator_type_rejects_nan():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SoftIndicator(np.full(3, np.nan))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SoftIndicator(np.array([0.5, np.nan, 1.0]))
    assert SoftIndicator(np.array([0.0, 0.5, 1.0])).s.size == 3


def test_soft_indicator_rejects_one_column():
    with pytest.raises(ValueError, match="^soft indicator needs at least two columns$"):
        soft_indicator(RelaxedAssignment(np.ones((3, 1))))


def test_kind_objective_rejects_mismatched_shapes():
    basis = validate_embedding(np.eye(4)[:, :2])
    with pytest.raises(ValueError, match="^basis and indicator shapes must agree$"):
        kind_objective(basis, make_indicator([0, 1, 1], 2))  # 3 rows, not 4
    with pytest.raises(ValueError, match="^basis and indicator shapes must agree$"):
        kind_objective(basis, make_indicator([0, 1, 2, 2], 3))  # 3 columns, not 2


def test_kind_objective_zero_when_ranges_match():
    h = make_indicator([0, 0, 1, 1, 2], 3)
    basis = validate_embedding(h.matrix)
    assert kind_objective(basis, h) == pytest.approx(0.0, abs=1e-12)


def test_kind_objective_orthogonal_ranges():
    # Basis columns sum to zero on every cluster, so U'H vanishes exactly and
    # the objective sits at its ceiling 2k.
    basis = validate_embedding(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) / np.sqrt(2)
    )
    h = make_indicator([0, 0, 1, 1], 2)
    assert float(np.max(np.abs(basis.matrix.T @ h.matrix))) < 1e-15
    assert kind_objective(basis, h) == pytest.approx(4.0, abs=1e-12)


def test_kind_objective_matches_subspace_distance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 25))
        k = int(rng.integers(2, 5))
        basis = validate_embedding(random_orthonormal(n, k, rng))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        h = make_indicator(labels, k)
        assert kind_objective(basis, h) == pytest.approx(
            subspace_distance(basis.matrix, h.matrix) ** 2, abs=1e-9
        )


def test_kind_objective_rotation_invariant():
    rng = np.random.default_rng(4)
    basis = validate_embedding(random_orthonormal(12, 3, rng))
    labels = np.array([0, 1, 2] * 4)
    h = make_indicator(labels, 3)
    rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rotated = validate_embedding(basis.matrix @ rotation)
    assert kind_objective(rotated, h) == pytest.approx(kind_objective(basis, h), abs=1e-9)
    assert kmeans_objective(rotated, labels) == pytest.approx(
        kmeans_objective(basis, labels), abs=1e-9
    )


def test_kmeans_objective_zero_on_indicator_basis():
    h = make_indicator([0, 0, 1, 1, 2], 3)
    basis = validate_embedding(h.matrix)
    assert kmeans_objective(basis, [0, 0, 1, 1, 2]) == pytest.approx(0.0, abs=1e-12)


def test_kmeans_objective_matches_centroid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(2, 5))
        basis = validate_embedding(random_orthonormal(n, k, rng))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        total = 0.0
        for j in range(k):
            members = basis.matrix[labels == j]
            total += float(((members - members.mean(axis=0)) ** 2).sum())
        assert kmeans_objective(basis, labels) == pytest.approx(total, abs=1e-8)


def test_kmeans_objective_rejects_empty_cluster():
    basis = validate_embedding(np.eye(4)[:, :3])
    with pytest.raises(ClusteringError, match="^cluster 2 is empty$"):
        kmeans_objective(basis, [0, 0, 1, 1])


def test_objectives_drift_from_their_exact_forms_by_k_minus_the_squared_norm():
    # The indicator forms put k where the exact forms put ||U||_F^2, so on an
    # input that validate_embedding passes through they differ from their
    # exact values by exactly k - ||U||_F^2, at most k * ORTHONORMAL_TOL.
    u = np.eye(2) + 4e-9 * np.random.default_rng(5).standard_normal((2, 2))
    basis = validate_embedding(u)
    assert not basis.orthonormalized
    drift = 2.0 - float(np.vdot(u, u))
    assert 1e-9 < drift <= 2 * ORTHONORMAL_TOL
    # Two singleton clusters: the within-cluster scatter is exactly 0.
    assert kmeans_objective(basis, [0, 1]) == pytest.approx(drift, abs=1e-15)
    # The exact squared distance is min over rotations R of ||U - R||_F^2.
    sigma = np.linalg.svd(u, compute_uv=False)
    exact = float(((sigma - 1.0) ** 2).sum())
    assert kind_objective(basis, make_indicator([0, 1], 2)) == pytest.approx(
        exact + drift, abs=1e-15
    )


def test_objectives_build_no_dense_indicator():
    # One n x k float64 array is 8 MB here; reading U'H off the labels keeps
    # each objective's peak allocation under a quarter of that.
    n, k = 20_000, 50
    rng = np.random.default_rng(6)
    basis = EmbeddedData(random_orthonormal(n, k, rng))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    for objective in (
        lambda: kind_objective(basis, make_indicator(labels, k)),
        lambda: kmeans_objective(basis, labels),
    ):
        tracemalloc.start()
        try:
            objective()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8 / 4
