import numpy as np
import pytest

from kindicators.baselines import KmeansParams, SrParams, kmeans_solve, sr_solve
from kindicators.core import make_indicator, validate_embedding
from kindicators.kindap import kindap_solve
from kindicators.projections import procrustes_rotation
from kindicators.synthgen import SynthSpec, generate

from oracles import (
    TooLargeError,
    canonical_partitions,
    exhaustive_best,
    random_orthonormal,
    sampled_rotation_min,
    surjective_assignments,
)


def test_surjective_count_n6_k2():
    assert sum(1 for _ in surjective_assignments(6, 2)) == 2**6 - 2  # 62


def test_canonical_counts_match_stirling():
    # Stirling numbers of the second kind S(n, k).
    assert sum(1 for _ in canonical_partitions(6, 2)) == 31
    assert sum(1 for _ in canonical_partitions(5, 3)) == 25
    assert sum(1 for _ in canonical_partitions(9, 3)) == 3025
    assert sum(1 for _ in canonical_partitions(8, 4)) == 1701


def test_canonical_partitions_unique_and_surjective():
    seen = set(canonical_partitions(7, 3))
    assert len(seen) == 301  # S(7, 3)
    for labels in seen:
        assert labels[0] == 0
        assert set(labels) == {0, 1, 2}


def test_enumeration_caps_enforced():
    with pytest.raises(TooLargeError):
        list(surjective_assignments(13, 2))
    with pytest.raises(TooLargeError):
        exhaustive_best(np.eye(12)[:, :5], 5, "kind")


def test_n_equals_k_unique_partition():
    h = make_indicator([0, 1, 2], 3)
    labels, value = exhaustive_best(h.matrix, 3, "kind")
    assert np.array_equal(labels, [0, 1, 2])
    assert value == pytest.approx(0.0, abs=1e-10)
    assert sum(1 for _ in canonical_partitions(3, 3)) == 1


def test_repeated_rows_ground_truth_split():
    rng = np.random.default_rng(0)
    rows = random_orthonormal(2, 2, rng)
    matrix = np.vstack([rows[0], rows[0], rows[1], rows[1]])
    basis = validate_embedding(matrix)
    labels, value = exhaustive_best(basis.matrix, 2, "kind")
    assert np.array_equal(labels, [0, 0, 1, 1])
    result = kindap_solve(basis)
    assert result.kind_objective == pytest.approx(value, abs=1e-10)


def test_sampled_rotation_hits_planted_rotation():
    # Draw the planted rotation from the same stream the sampler will use, so
    # the first sample reproduces it exactly.
    rng = np.random.default_rng(1)
    basis = validate_embedding(random_orthonormal(8, 3, np.random.default_rng(2)))
    probe = np.random.default_rng(99)
    q, r = np.linalg.qr(probe.standard_normal((3, 3)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    planted = q * signs
    target = basis.matrix @ planted
    sampled = sampled_rotation_min(basis.matrix, target, 10, np.random.default_rng(99))
    rotation, _ = procrustes_rotation(basis.matrix.T @ target)
    closed = float(np.linalg.norm(basis.matrix @ rotation - target))
    assert sampled == pytest.approx(closed, abs=1e-12)
    assert sampled == pytest.approx(0.0, abs=1e-12)
    del rng


def test_sampled_rotation_single_sample():
    basis = validate_embedding(random_orthonormal(5, 2, np.random.default_rng(3)))
    value = sampled_rotation_min(basis.matrix, basis.matrix, 1, np.random.default_rng(4))
    assert value >= 0.0


def test_closed_form_never_beaten_small_batch():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, 4))
        basis = validate_embedding(random_orthonormal(n, k, rng))
        target = rng.uniform(0.0, 1.0, size=(n, k))
        rotation, _ = procrustes_rotation(basis.matrix.T @ target)
        closed = float(np.linalg.norm(basis.matrix @ rotation - target))
        assert closed <= sampled_rotation_min(basis.matrix, target, 500, rng) + 1e-9


def test_solvers_bounded_below_by_enumeration():
    for seed in range(5):
        data = generate(
            SynthSpec(k=2, per_cluster=4, rho=0.6, ambient_dim=10, seed=seed)
        )
        _, kind_floor = exhaustive_best(data.embedded.matrix, 2, "kind")
        _, kmeans_floor = exhaustive_best(data.embedded.matrix, 2, "kmeans")
        _, sr_floor = exhaustive_best(data.embedded.matrix, 2, "sr")
        kind_result = kindap_solve(data.embedded)
        assert kind_result.kind_objective >= kind_floor - 1e-9
        assert kind_result.kind_objective == pytest.approx(kind_floor, abs=1e-9)
        km = kmeans_solve(data.embedded.matrix, 2, KmeansParams(replications=5, seed=seed))
        assert km.kmeans_objective >= kmeans_floor - 1e-9
        sr = sr_solve(data.embedded, SrParams(replications=5, seed=seed))
        sr_obj = sr.trace.replication_objectives[sr.trace.replication_index]
        assert sr_obj >= sr_floor - 1e-9
