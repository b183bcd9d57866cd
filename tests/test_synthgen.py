import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from kindicators.baselines import KmeansParams, lloyd_solve
from kindicators.evaluation import accuracy
from kindicators.kindap import kindap_solve
from kindicators.synthgen import SynthDataset, SynthSpec, generate

from oracles import reference_generate


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(k=1)
    with pytest.raises(ValueError):
        SynthSpec(k=3, rho=0.0)
    with pytest.raises(ValueError):
        SynthSpec(k=3, per_cluster=0)
    with pytest.raises(ValueError):
        SynthSpec(k=5, ambient_dim=4)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SynthSpec(k=3, seed=-1)
    with pytest.raises(ValueError, match="too large for one array"):
        SynthSpec(k=2, per_cluster=2**62)


@pytest.mark.parametrize("field", ["k", "per_cluster", "ambient_dim", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
def test_spec_rejects_non_integer_counts(field, value):
    # Checked before any comparison, so a string is a ValueError, not a TypeError.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        SynthSpec(**{"k": 3, field: value})


def test_spec_accepts_numpy_integer_counts():
    spec = SynthSpec(
        k=np.int64(3), per_cluster=np.int32(2), ambient_dim=np.int64(4), seed=np.uint8(1)
    )
    assert generate(spec).raw.shape == (6, 4)


@pytest.mark.parametrize("value", [True, False, np.True_, "0.5", None])
def test_spec_rejects_non_real_rho(value):
    with pytest.raises(ValueError, match=f"^rho must be a real number, got {re.escape(repr(value))}$"):
        SynthSpec(k=3, rho=value)


def test_spec_accepts_integer_and_numpy_rho():
    for rho in (1, np.float32(0.5), np.float64(0.66)):
        assert generate(SynthSpec(k=2, per_cluster=2, ambient_dim=3, rho=rho)).raw.shape == (4, 3)


@pytest.mark.parametrize("rho", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_rho(rho):
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        SynthSpec(k=3, rho=rho)


def test_center_distances_exactly_two():
    spec = SynthSpec(k=6, per_cluster=3, ambient_dim=20, seed=0)
    data = generate(spec)
    centers = np.zeros((6, 20))
    centers[np.arange(6), np.arange(6)] = np.sqrt(2.0)
    for a in range(6):
        for b in range(a + 1, 6):
            assert np.linalg.norm(centers[a] - centers[b]) == pytest.approx(2.0, abs=1e-12)
    # And the per-cluster means sit close to those centers.
    for j in range(6):
        mean = data.raw[data.truth == j].mean(axis=0)
        assert np.linalg.norm(mean - centers[j]) < spec.rho


def test_points_on_sphere_of_radius_rho():
    for rho in (0.33, 0.66, 0.99):
        data = generate(SynthSpec(k=4, per_cluster=10, rho=rho, ambient_dim=25, seed=1))
        centers = np.zeros((4, 25))
        centers[np.arange(4), np.arange(4)] = np.sqrt(2.0)
        radii = np.linalg.norm(data.raw - centers[data.truth], axis=1)
        np.testing.assert_allclose(radii, rho, atol=1e-10)


def test_same_seed_bit_identical():
    spec = SynthSpec(k=3, per_cluster=5, rho=0.5, ambient_dim=12, seed=42)
    first = generate(spec)
    second = generate(spec)
    assert np.array_equal(first.raw, second.raw)
    assert np.array_equal(first.truth, second.truth)
    assert np.array_equal(first.embedded.matrix, second.embedded.matrix)


def test_different_seeds_differ():
    base = SynthSpec(k=3, per_cluster=5, rho=0.5, ambient_dim=12, seed=1)
    other = SynthSpec(k=3, per_cluster=5, rho=0.5, ambient_dim=12, seed=2)
    assert not np.array_equal(generate(base).raw, generate(other).raw)


def test_embedded_is_orthonormal():
    data = generate(SynthSpec(k=5, per_cluster=8, rho=0.7, ambient_dim=30, seed=3))
    gram = data.embedded.matrix.T @ data.embedded.matrix
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-10
    assert data.embedded.matrix.shape == (40, 5)


def test_truth_blocks():
    data = generate(SynthSpec(k=3, per_cluster=4, ambient_dim=8, seed=4))
    assert np.array_equal(data.truth, np.repeat([0, 1, 2], 4))


def test_separable_instances_are_solvable():
    data = generate(SynthSpec(k=3, rho=0.33, per_cluster=40, seed=7))
    kind_result = kindap_solve(data.embedded)
    assert accuracy(kind_result.labels, data.truth) == 1.0
    centers = np.vstack(
        [data.embedded.matrix[data.truth == j].mean(axis=0) for j in range(3)]
    )
    lloyd_result = lloyd_solve(
        data.embedded.matrix, 3, centers, KmeansParams(replications=1)
    )
    assert accuracy(lloyd_result.labels, data.truth) == 1.0


# Largest entrywise difference allowed between the embedding from the Gram's
# eigendecomposition and the thin SVD's.
EMBEDDING_ATOL = 1e-11
# lambda_k / lambda_1 of the Gram is about 7e-8 here, far below
# GRAM_EIGH_RATIO, so `generate` must take the thin SVD.
FALLBACK_SPEC = SynthSpec(k=150, per_cluster=1, rho=2.0, ambient_dim=150)


@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(k=2, per_cluster=1, rho=0.1, ambient_dim=2, seed=0),
        SynthSpec(k=5, per_cluster=7, rho=0.66, ambient_dim=9, seed=4),
        SynthSpec(k=10, per_cluster=40, rho=0.33, ambient_dim=300, seed=1),
        SynthSpec(k=20, per_cluster=25, rho=3.0, ambient_dim=50, seed=9),
        FALLBACK_SPEC,
    ],
)
def test_generate_bit_identical_to_reference(spec):
    new = generate(spec)
    old = reference_generate(spec)
    assert np.array_equal(new.raw, old.raw)
    assert np.array_equal(new.truth, old.truth)
    if spec is FALLBACK_SPEC:
        assert np.array_equal(new.embedded.matrix, old.embedded.matrix)
    else:
        assert np.max(np.abs(new.embedded.matrix - old.embedded.matrix)) <= EMBEDDING_ATOL
    new_run, old_run = kindap_solve(new.embedded), kindap_solve(old.embedded)
    assert np.array_equal(new_run.labels, old_run.labels)
    assert new_run.trace.inner_iters_per_outer == old_run.trace.inner_iters_per_outer


def _svd_calls(spec) -> int:
    with mock.patch.object(np.linalg, "svd", side_effect=np.linalg.svd) as svd:
        generate(spec)
    return svd.call_count


def test_generate_takes_the_svd_only_for_an_ill_conditioned_gram():
    assert _svd_calls(FALLBACK_SPEC) == 1
    for spec in (
        SynthSpec(k=10, per_cluster=40, ambient_dim=300, seed=1),
        SynthSpec(k=10, per_cluster=10, ambient_dim=300, seed=2),  # n < d: the n x n Gram
    ):
        assert _svd_calls(spec) == 0


def test_generate_wide_raw_matches_reference():
    spec = SynthSpec(k=10, per_cluster=10, rho=0.66, ambient_dim=300, seed=2)
    with mock.patch.object(np.linalg, "eigh", side_effect=np.linalg.eigh) as eigh:
        new = generate(spec)
    assert eigh.call_args.args[0].shape == (100, 100)
    old = reference_generate(spec)
    assert np.array_equal(new.raw, old.raw)
    assert np.max(np.abs(new.embedded.matrix - old.embedded.matrix)) <= EMBEDDING_ATOL


@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(k=50, per_cluster=400, ambient_dim=300),
        # Small k leaves no room for an n x d temporary beside raw.
        SynthSpec(k=5, per_cluster=2000, ambient_dim=300),
    ],
)
def test_generate_peak_memory_is_one_raw_matrix(spec):
    n = spec.k * spec.per_cluster
    budget = 1.25 * n * spec.ambient_dim * 8 + 5 * n * spec.k * 8
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, f"peak {peak / 1e6:.1f} MB over {budget / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(k=50, per_cluster=400, ambient_dim=300),
        # n = d: the ill-conditioned Gram sends it to the thin SVD.
        SynthSpec(k=150, per_cluster=1, rho=2.0, ambient_dim=150),
    ],
)
def test_generate_holds_one_embedding_array_beside_raw(spec):
    # The sign fix works in place and the dataset keeps the product raw V
    # without a copy, so one n x k array sits beside raw (two allow for the
    # SVD route's copy of its k columns).
    n = spec.k * spec.per_cluster
    budget = n * spec.ambient_dim * 8 + 2 * n * spec.k * 8 + 1e6
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, f"peak {peak / 1e6:.1f} MB over {budget / 1e6:.1f} MB"


def test_dataset_owns_raw_without_aliasing_the_caller():
    data = generate(SynthSpec(k=3, per_cluster=4, ambient_dim=8, seed=4))
    assert not data.raw.flags.writeable
    with pytest.raises(ValueError):
        data.raw[0, 0] = 1.0
    mine = data.raw.copy()
    frozen_view = mine[:, :]
    frozen_view.setflags(write=False)
    for given in (mine, frozen_view):
        kept = SynthDataset(raw=given, truth=data.truth, embedded=data.embedded)
        assert not np.shares_memory(kept.raw, mine)
        assert not kept.raw.flags.writeable
