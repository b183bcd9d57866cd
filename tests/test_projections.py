import numpy as np
import pytest

from kindicators.core import make_indicator, validate_embedding
from kindicators.projections import procrustes_rotation, projection_distance, subspace_distance

from oracles import random_orthonormal, sampled_rotation_min


def _random_basis(n, k, seed):
    return validate_embedding(random_orthonormal(n, k, np.random.default_rng(seed)))


def test_procrustes_identity_fixed_point():
    basis = _random_basis(7, 3, 2)
    rotation, sigma = procrustes_rotation(basis.matrix.T @ basis.matrix)
    np.testing.assert_allclose(rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(basis.matrix @ rotation, basis.matrix, atol=1e-12)
    assert float(sigma.sum()) == pytest.approx(3.0, abs=1e-12)


def test_procrustes_recovers_exact_rotation():
    rng = np.random.default_rng(3)
    basis = _random_basis(9, 4, 4)
    r0 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    rotation, _ = procrustes_rotation(basis.matrix.T @ (basis.matrix @ r0))
    np.testing.assert_allclose(basis.matrix @ rotation, basis.matrix @ r0, atol=1e-8)
    np.testing.assert_allclose(rotation, r0, atol=1e-8)


def test_procrustes_never_beaten_by_sampled_rotations():
    rng = np.random.default_rng(5)
    basis = _random_basis(8, 3, 6)
    target = rng.uniform(0, 1, size=(8, 3))
    rotation, _ = procrustes_rotation(basis.matrix.T @ target)
    closed = float(np.linalg.norm(basis.matrix @ rotation - target))
    sampled = sampled_rotation_min(basis.matrix, target, 10_000, rng)
    assert closed <= sampled + 1e-9


def test_procrustes_returns_nuclear_norm():
    rng = np.random.default_rng(7)
    basis = _random_basis(6, 3, 8)
    target = rng.uniform(0, 1, size=(6, 3))
    _, sigma = procrustes_rotation(basis.matrix.T @ target)
    expected = np.linalg.svd(basis.matrix.T @ target, compute_uv=False)
    assert float(sigma.sum()) == pytest.approx(float(expected.sum()), abs=1e-12)


def test_procrustes_idempotent_in_range():
    rng = np.random.default_rng(9)
    basis = _random_basis(6, 3, 10)
    target = rng.uniform(0, 1, size=(6, 3))
    first, _ = procrustes_rotation(basis.matrix.T @ target)
    second, _ = procrustes_rotation(basis.matrix.T @ (basis.matrix @ first))
    np.testing.assert_allclose(basis.matrix @ second, basis.matrix @ first, atol=1e-8)
    np.testing.assert_allclose(second.T @ first, np.eye(3), atol=1e-8)


def test_procrustes_output_stays_in_basis_range():
    rng = np.random.default_rng(30)
    basis = _random_basis(12, 4, 31)
    target = rng.uniform(0, 1, size=(12, 4))
    rotation, _ = procrustes_rotation(basis.matrix.T @ target)
    projected = basis.matrix @ rotation
    residual = basis.matrix @ (basis.matrix.T @ projected) - projected
    assert float(np.linalg.norm(residual)) <= 1e-8


def test_subspace_distance_identity_and_symmetry():
    rng = np.random.default_rng(12)
    a = random_orthonormal(10, 3, rng)
    b = random_orthonormal(10, 3, rng)
    # The squared distance is clean to machine precision; the square root
    # amplifies roundoff near zero to ~sqrt(eps).
    assert subspace_distance(a, a) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert subspace_distance(a, b) == pytest.approx(subspace_distance(b, a), abs=1e-12)


def test_subspace_distance_matches_rotation_grid_k2():
    # Independent oracle: explicit min of ||A R - B||_F over a fine grid of
    # 2x2 rotations and reflections.
    rng = np.random.default_rng(13)
    a = random_orthonormal(6, 2, rng)
    b = random_orthonormal(6, 2, rng)
    thetas = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
    c, s = np.cos(thetas), np.sin(thetas)
    rotations = np.empty((2 * thetas.size, 2, 2))
    rotations[: thetas.size] = np.stack(
        [np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1
    )
    rotations[thetas.size :] = np.stack(
        [np.stack([c, s], axis=1), np.stack([s, -c], axis=1)], axis=1
    )
    gaps = ((np.einsum("nk,mkj->mnj", a, rotations) - b[None]) ** 2).sum(axis=(1, 2))
    assert subspace_distance(a, b) ** 2 == pytest.approx(float(gaps.min()), abs=1e-8)


def test_subspace_distance_nuclear_identity():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(2, min(n, 6) + 1))
        a = random_orthonormal(n, k, rng)
        b = random_orthonormal(n, k, rng)
        nuclear = float(np.linalg.svd(a.T @ b, compute_uv=False).sum())
        assert subspace_distance(a, b) ** 2 == pytest.approx(2 * k - 2 * nuclear, abs=1e-9)


def test_principal_cosines_at_most_one():
    rng = np.random.default_rng(15)
    for _ in range(30):
        a = random_orthonormal(12, 4, rng)
        b = random_orthonormal(12, 4, rng)
        sigma = np.linalg.svd(a.T @ b, compute_uv=False)
        assert np.all(sigma >= 0)
        assert np.all(sigma <= 1 + 1e-12)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(16)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(2, min(n - 1, 5) + 1))  # n > k keeps ranges distinct
        v1, v2, v3 = (random_orthonormal(n, k, rng) for _ in range(3))
        d13 = subspace_distance(v1, v3)
        assert d13 <= subspace_distance(v1, v2) + subspace_distance(v2, v3) + 1e-9


def test_distance_chain_random_pairs_and_indicators():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(2, min(n - 1, 5) + 1))  # n > k keeps ranges distinct
        a = random_orthonormal(n, k, rng)
        if rng.random() < 0.5:
            b = random_orthonormal(n, k, rng)
        else:
            labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            b = make_indicator(labels, k).matrix
        sd = subspace_distance(a, b)
        pd = projection_distance(a, b)
        assert np.sqrt(2.0) / 2.0 * pd <= sd + 1e-9
        assert sd <= pd + 1e-9


def test_projection_distance_identity():
    rng = np.random.default_rng(18)
    a = random_orthonormal(8, 3, rng)
    assert projection_distance(a, a) == pytest.approx(0.0, abs=1e-9)


def test_projection_distance_orthogonal_ranges():
    a = np.zeros((8, 2))
    a[0, 0] = a[1, 1] = 1.0
    b = np.zeros((8, 2))
    b[4, 0] = b[5, 1] = 1.0
    assert projection_distance(a, b) == pytest.approx(np.sqrt(4.0), abs=1e-12)


def test_projection_distance_matches_dense_oracle():
    rng = np.random.default_rng(19)
    a = random_orthonormal(50, 4, rng)
    b = random_orthonormal(50, 4, rng)
    dense = float(np.linalg.norm(a @ a.T - b @ b.T))
    assert projection_distance(a, b) == pytest.approx(dense, abs=1e-8)


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(20)
    a = random_orthonormal(8, 3, rng)
    b = random_orthonormal(8, 2, rng)
    with pytest.raises(ValueError):
        subspace_distance(a, b)
    with pytest.raises(ValueError):
        projection_distance(a, b)
