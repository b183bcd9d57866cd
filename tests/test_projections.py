import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kindicators.core import make_indicator, validate_embedding
from kindicators.projections import (
    DEGENERATE_SV_TOL,
    GRAM_EIGH_MIN_K,
    GRAM_EIGH_RATIO,
    RotatedBasis,
    procrustes_rotation,
)

from oracles import (
    projection_distance,
    random_orthonormal,
    reference_procrustes_rotation,
    sampled_rotation_min,
    subspace_distance,
)
from procrustes_grid import recorded


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


def _with_spectrum(sigma, seed):
    """U diag(sigma) V' for Haar-random orthogonal U and V."""
    rng = np.random.default_rng(seed)
    k = sigma.size
    return (random_orthonormal(k, k, rng) * sigma) @ random_orthonormal(k, k, rng).T


def _assert_matches_svd(cross) -> list:
    """R orthogonal and sigma descending, both close to the SVD's; returns the route."""
    ref_rotation, ref_sigma = reference_procrustes_rotation(cross)
    called = []
    rotation, sigma = recorded(cross, called)
    k = cross.shape[0]
    assert np.max(np.abs(rotation.T @ rotation - np.eye(k))) <= 1e-13
    assert np.all(np.diff(sigma) <= 0)
    assert abs(sigma.sum() - ref_sigma.sum()) <= 1e-13 * ref_sigma.sum()
    assert np.max(np.abs(rotation - ref_rotation)) <= 1e-12
    if called == ["svd"]:
        assert np.array_equal(rotation, ref_rotation) and np.array_equal(sigma, ref_sigma)
    return called


# sigma_min / sigma_max = 10**log_ratio; the eigendecomposition route needs
# lambda_min / lambda_max = (sigma_min / sigma_max)**2 > GRAM_EIGH_RATIO, so
# the two ranges fall on either side of the switch.
LOG_RATIO = st.one_of(st.floats(-1.45, 0.0), st.floats(-14.0, -1.55))


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(1, 150), log_ratio=LOG_RATIO, log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_procrustes_matches_svd_on_prescribed_spectra(k, log_ratio, log_scale, seed):
    rng = np.random.default_rng(seed)
    logs = np.sort(rng.uniform(log_ratio, 0.0, size=k))[::-1]
    logs[0], logs[-1] = 0.0, log_ratio if k > 1 else 0.0
    _assert_matches_svd(10.0**log_scale * _with_spectrum(10.0**logs, seed))


def test_procrustes_well_conditioned_takes_the_eigendecomposition():
    cross = _with_spectrum(np.geomspace(1.0, 0.1, 40), 41)
    assert _assert_matches_svd(cross) == ["eigh"]


def test_procrustes_small_k_keeps_the_svd():
    cross = _with_spectrum(np.geomspace(1.0, 0.1, GRAM_EIGH_MIN_K - 1), 46)
    assert _assert_matches_svd(cross) == ["svd"]


def test_procrustes_diagonal_precheck_skips_the_eigendecomposition():
    # M = Q diag(s) has M'M = diag(s^2), whose diagonal already shows
    # lambda_min / lambda_max = 1e-4 < GRAM_EIGH_RATIO.
    q = random_orthonormal(40, 40, np.random.default_rng(42))
    cross = q * np.geomspace(1.0, 1e-2, 40)
    assert np.diag(cross.T @ cross).min() <= GRAM_EIGH_RATIO
    assert _assert_matches_svd(cross) == ["svd"]


def test_procrustes_ill_conditioned_falls_back_to_the_svd():
    # The spread diagonal passes the pre-check, the eigenvalues do not, so
    # the result is the SVD's, bit for bit.
    cross = _with_spectrum(np.geomspace(1.0, 1e-2, 40), 43)
    assert np.diag(cross.T @ cross).min() > GRAM_EIGH_RATIO * np.diag(cross.T @ cross).max()
    assert _assert_matches_svd(cross) == ["eigh", "svd"]


def test_procrustes_tiny_well_conditioned_input_still_reports_degeneracy():
    # Scaling leaves the condition number alone: the eigendecomposition route
    # runs, and the singular values come out scaled below DEGENERATE_SV_TOL.
    cross = 1e-14 * _with_spectrum(np.geomspace(1.0, 0.5, 40), 44)
    assert _assert_matches_svd(cross) == ["eigh"]
    assert procrustes_rotation(cross)[1][-1] < DEGENERATE_SV_TOL


def test_procrustes_underflowing_gram_goes_through_the_svd():
    # At 1e-160 the products in M'M underflow; an eigendecomposition of it
    # would give R off by about 2e-3.
    cross = 1e-160 * _with_spectrum(np.geomspace(1.0, 0.5, 40), 45)
    assert _assert_matches_svd(cross) == ["svd"]


@pytest.mark.parametrize("cross", [np.zeros((40, 40)), np.diag(np.r_[np.ones(39), 0.0])])
def test_procrustes_zero_and_rank_deficient_inputs_keep_the_svd_result(cross):
    assert _assert_matches_svd(cross) == ["svd"]
    assert procrustes_rotation(cross)[1][-1] < DEGENERATE_SV_TOL


def test_procrustes_nan_input_raises_like_the_svd():
    cross = np.eye(40)
    cross[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        reference_procrustes_rotation(cross)
    called = []
    with pytest.raises(np.linalg.LinAlgError):
        recorded(cross, called)
    assert called == ["svd"]


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


def test_rotated_basis_rejects_nan():
    basis = random_orthonormal(6, 3, np.random.default_rng(4))
    RotatedBasis(basis, np.eye(3))
    with pytest.raises(ValueError, match="columns must be orthonormal"):
        RotatedBasis(np.full((6, 3), np.nan), np.eye(3))
    with pytest.raises(ValueError, match="rotation must be orthogonal"):
        RotatedBasis(basis, np.full((3, 3), np.nan))
