import numpy as np
import pytest

from kindicators.baselines import KmeansParams, lloyd_solve
from kindicators.evaluation import accuracy
from kindicators.kindap import kindap_solve
from kindicators.synthgen import SynthSpec, generate

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


@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(k=2, per_cluster=1, rho=0.1, ambient_dim=2, seed=0),
        SynthSpec(k=5, per_cluster=7, rho=0.66, ambient_dim=9, seed=4),
        SynthSpec(k=10, per_cluster=40, rho=0.33, ambient_dim=300, seed=1),
        SynthSpec(k=20, per_cluster=25, rho=3.0, ambient_dim=50, seed=9),
    ],
)
def test_generate_bit_identical_to_reference(spec):
    new = generate(spec)
    old = reference_generate(spec)
    assert np.array_equal(new.raw, old.raw)
    assert np.array_equal(new.truth, old.truth)
    assert np.array_equal(new.embedded.matrix, old.embedded.matrix)
