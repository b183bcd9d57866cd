import re

import numpy as np
import pytest

from kindicators import baselines
from kindicators.baselines import (
    KmeansParams,
    SrParams,
    _best_replication,
    _random_orthogonal,
    _sr_once,
    _squared_distances,
    kmeans_pp_init,
    kmeans_solve,
    lloyd_solve,
    sr_solve,
)
from kindicators.cli import stable_cell_seed
from kindicators.core import ClusteringError, make_indicator, validate_embedding
from kindicators.evaluation import accuracy
from kindicators.kindap import repair_empty_columns
from kindicators.synthgen import SynthSpec, generate

from oracles import (
    exhaustive_best,
    reference_kmeans_pp_init,
    reference_lloyd_solve,
    reference_sr_once,
    reference_squared_distances,
)


def test_kmeans_pp_all_points_is_permutation():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((6, 3))
    centers = kmeans_pp_init(data, 6, [np.random.default_rng(1)])[0]
    assert np.array_equal(
        np.sort(centers, axis=0), np.sort(data, axis=0)
    )


def test_kmeans_pp_duplicates_fall_back_to_uniform():
    data = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    centers = kmeans_pp_init(data, 4, [np.random.default_rng(2)])[0]
    assert np.array_equal(np.sort(centers, axis=0), np.sort(data, axis=0))


def test_kmeans_pp_single_center():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((5, 2))
    centers = kmeans_pp_init(data, 1, [np.random.default_rng(4)])[0]
    assert any(np.array_equal(centers[0], row) for row in data)


def test_kmeans_pp_spreads_over_separated_blobs():
    # Monte-Carlo check of the squared-distance weighting: two tight blobs far
    # apart should both receive a center almost always.
    rng = np.random.default_rng(5)
    blob_a = rng.normal(0.0, 0.05, size=(10, 2))
    blob_b = rng.normal(50.0, 0.05, size=(10, 2))
    data = np.vstack([blob_a, blob_b])
    hits = 0
    trials = 10_000
    for seed in range(trials):
        centers = kmeans_pp_init(data, 2, [np.random.default_rng(seed)])[0]
        sides = centers[:, 0] > 25.0
        hits += sides[0] != sides[1]
    assert hits / trials >= 0.99


def test_lloyd_each_point_its_own_center():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((5, 2))
    result = lloyd_solve(data, 5, data.copy(), KmeansParams(replications=1))
    assert result.kmeans_objective == pytest.approx(0.0, abs=1e-20)


def test_lloyd_indicator_fixed_point():
    h = make_indicator([0, 0, 1, 1, 2, 2], 3)
    centers = h.matrix[[0, 2, 4]]
    result = lloyd_solve(h.matrix, 3, centers, KmeansParams(replications=1))
    assert result.trace.outer_iters == 1
    assert accuracy(result.labels, [0, 0, 1, 1, 2, 2]) == 1.0


def test_lloyd_bounded_below_by_exhaustive_minimum():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((8, 2))
    _, best_value = exhaustive_best(data, 2, "kmeans")
    init = kmeans_pp_init(data, 2, [np.random.default_rng(8)])[0]
    result = lloyd_solve(data, 2, init, KmeansParams(replications=1))
    assert result.kmeans_objective >= best_value - 1e-9


def test_lloyd_from_optimal_centers_reaches_minimum():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((8, 2))
    best_labels, best_value = exhaustive_best(data, 2, "kmeans")
    centers = np.vstack([data[best_labels == j].mean(axis=0) for j in range(2)])
    result = lloyd_solve(data, 2, centers, KmeansParams(replications=1))
    assert result.kmeans_objective == pytest.approx(best_value, abs=1e-9)


def test_lloyd_monotone_objective():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((40, 3))
    init = kmeans_pp_init(data, 4, [np.random.default_rng(11)])[0]
    result = lloyd_solve(data, 4, init, KmeansParams(replications=1))
    history = np.asarray(result.trace.objective_history)
    assert np.all(np.diff(history) <= 1e-12)


def test_lloyd_repairs_empty_cluster():
    data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    # Both identical centers claim the same cluster; the other starts empty.
    init = np.array([[0.0, 0.0], [0.0, 0.0]])
    result = lloyd_solve(data, 2, init, KmeansParams(replications=1))
    assert set(result.labels) == {0, 1}
    assert accuracy(result.labels, [0, 0, 1, 1]) == 1.0


def test_lloyd_rejects_fewer_points_than_clusters():
    data = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ClusteringError, match="^2 points cannot form 3 clusters$"):
        lloyd_solve(data, 3, np.zeros((3, 2)), KmeansParams(replications=1))


def test_kmeans_rejects_fewer_points_than_clusters():
    data = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ClusteringError, match="^2 points cannot form 3 clusters$"):
        kmeans_solve(data, 3, KmeansParams(replications=2, seed=0))


@pytest.mark.parametrize("params_type", [KmeansParams, SrParams])
def test_params_reject_negative_seed(params_type):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        params_type(seed=-1)


@pytest.mark.parametrize("params_type", [KmeansParams, SrParams])
@pytest.mark.parametrize("field", ["replications", "max_iters", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
def test_params_reject_non_integer_counts(params_type, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        params_type(**{field: value})


@pytest.mark.parametrize("params_type", [KmeansParams, SrParams])
@pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None])
def test_params_reject_non_real_tol(params_type, value):
    with pytest.raises(ValueError, match=f"^tol must be a real number, got {re.escape(repr(value))}$"):
        params_type(tol=value)


@pytest.mark.parametrize("params_type", [KmeansParams, SrParams])
def test_params_accept_integer_and_numpy_tol(params_type):
    for tol in (1, np.float32(0.5), np.int64(2)):
        assert params_type(tol=tol).tol == tol


@pytest.mark.parametrize("params_type", [KmeansParams, SrParams])
def test_params_accept_numpy_integer_counts(params_type):
    params = params_type(replications=np.int64(3), max_iters=np.int32(4), seed=np.uint64(5))
    assert (params.replications, params.max_iters, params.seed) == (3, 4, 5)


# Each k-means entry point with its other arguments fixed: 6 x 2 data, k, and
# for lloyd_solve 2 x 2 starting centers.
KMEANS_ENTRY_POINTS = {
    "kmeans_pp_init": lambda x, k: kmeans_pp_init(x, k, [np.random.default_rng(0)]),
    "lloyd_solve": lambda x, k: lloyd_solve(x, k, np.zeros((2, 2)), KmeansParams(replications=1)),
    "kmeans_solve": lambda x, k: kmeans_solve(x, k, KmeansParams(replications=2)),
}
GOOD_DATA = np.arange(12.0).reshape(6, 2)
BAD_K = {
    "zero": (0, "k must be >= 1, got 0"),
    "negative": (-1, "k must be >= 1, got -1"),
    "float": (2.5, "k must be an integer, got 2.5"),
    "bool": (True, "k must be an integer, got True"),
}
BAD_DATA = {
    "one_dimensional": (np.arange(6.0), "data must be a 2-D array with at least one column, got shape (6,)"),
    "no_columns": (np.zeros((6, 0)), "data must be a 2-D array with at least one column, got shape (6, 0)"),
    "nan": (np.where(GOOD_DATA == 3.0, np.nan, GOOD_DATA), "data must be finite"),
    "inf": (np.where(GOOD_DATA == 3.0, np.inf, GOOD_DATA), "data must be finite"),
    "negative_inf": (np.where(GOOD_DATA == 3.0, -np.inf, GOOD_DATA), "data must be finite"),
    "overflowing": (GOOD_DATA * 1e200, "small enough that squared distances do not overflow"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", KMEANS_ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD_K)
def test_kmeans_entry_points_reject_bad_k(entry, case):
    k, message = BAD_K[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        KMEANS_ENTRY_POINTS[entry](GOOD_DATA, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", KMEANS_ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD_DATA)
def test_kmeans_entry_points_reject_bad_data(entry, case):
    data, message = BAD_DATA[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        KMEANS_ENTRY_POINTS[entry](data, 2)


@pytest.mark.parametrize("entry", KMEANS_ENTRY_POINTS)
def test_kmeans_entry_points_accept_large_finite_data(entry):
    # Entries up to about 1e150 keep every squared distance finite.
    KMEANS_ENTRY_POINTS[entry](GOOD_DATA * 1e150, 2)


def test_lloyd_rejects_centers_of_the_wrong_shape():
    for centers in (np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(4)):
        with pytest.raises(ValueError, match="^init_centers must be 2 x 2$"):
            lloyd_solve(GOOD_DATA, 2, centers)


def test_lloyd_rejects_non_finite_centers():
    with pytest.raises(ValueError, match="^init_centers must be finite$"):
        lloyd_solve(GOOD_DATA, 2, np.array([[0.0, 0.0], [np.nan, 1.0]]))


def _assert_same_lloyd(new, old):
    assert np.array_equal(new.labels, old.labels)
    assert np.array(new.trace.objective_history).tobytes() == np.array(old.trace.objective_history).tobytes()
    assert new.kmeans_objective == old.kmeans_objective
    # The reference forms U'H as a dense GEMM, the solver as cluster sums:
    # the same value up to the order of the additions.
    if old.kind_objective is None:
        assert new.kind_objective is None
    else:
        assert abs(new.kind_objective - old.kind_objective) <= 1e-12 * max(1.0, old.kind_objective)


def _inits_with_empty_clusters(rng):
    """Seeded Lloyd starts that leave one or several clusters empty.

    On embedded data (kind objective defined) and on rounded data whose
    distances tie: duplicated centers leave all but the first copy empty,
    and a far-away center starts with no point.
    """
    embedded = generate(SynthSpec(k=6, rho=0.5, per_cluster=10, ambient_dim=20, seed=27)).embedded.matrix
    rounded = np.round(rng.standard_normal((60, 3)) * 2.0) / 2.0
    for x, k in ((embedded, 6), (rounded, 5)):
        n = x.shape[0]
        for _ in range(40):
            centers = x[rng.choice(n, size=k, replace=False)].copy()
            copies = int(rng.integers(1, k))
            centers[k - copies :] = centers[0]
            if rng.random() < 0.3:
                centers[k - 1] = 100.0
            yield x, k, centers[rng.permutation(k)]


def test_lloyd_repair_matches_reference(monkeypatch):
    # Lloyd's empty-cluster repair is repair_empty_columns scored by the
    # distance to the own center; it must reproduce the farthest-point
    # seizure it replaced bit for bit.
    empties = []

    def counting_repair(values, labels):
        empties.append(int((np.bincount(labels, minlength=values.shape[1]) == 0).sum()))
        return repair_empty_columns(values, labels)

    monkeypatch.setattr(baselines, "repair_empty_columns", counting_repair)
    for i, (x, k, centers) in enumerate(_inits_with_empty_clusters(np.random.default_rng(28))):
        # Loose tolerances let the centers the repair sets decide where the
        # run stops.
        params = KmeansParams(replications=1, tol=(1e-6, 0.05, 0.3)[i % 3])
        new = lloyd_solve(x, k, centers, params)
        _assert_same_lloyd(new, reference_lloyd_solve(x, k, centers, params))
    assert 1 in empties and max(empties) >= 3


def test_kmeans_objective_identity_on_orthonormal_data():
    # Within-cluster scatter, projector residual, and the Gram form all agree
    # on column-orthonormal data with a normalized indicator.
    data = generate(SynthSpec(k=3, rho=0.4, per_cluster=6, ambient_dim=12, seed=12))
    u = data.embedded.matrix
    result = kmeans_solve(u, 3, KmeansParams(replications=5, seed=13))
    h = make_indicator(result.labels, 3).matrix
    wcss = result.kmeans_objective
    projector_form = float(((u - h @ (h.T @ u)) ** 2).sum())
    gram_form = 3.0 - float(((u.T @ h) ** 2).sum())
    assert wcss == pytest.approx(projector_form, abs=1e-8)
    assert wcss == pytest.approx(gram_form, abs=1e-8)


def test_kmeans_single_replication_equals_lloyd():
    rng = np.random.default_rng(14)
    data = rng.standard_normal((20, 3))
    params = KmeansParams(replications=1, seed=15)
    combined = kmeans_solve(data, 3, params)
    stream = np.random.SeedSequence(15).spawn(1)[0]
    init = kmeans_pp_init(data, 3, [np.random.default_rng(stream)])[0]
    direct = lloyd_solve(data, 3, init, params)
    assert np.array_equal(combined.labels, direct.labels)
    assert combined.kmeans_objective == direct.kmeans_objective


def test_kmeans_solve_does_its_set_up_once_per_solve(monkeypatch):
    # The data is checked twice per solve, whatever the replication count:
    # once by kmeans_solve for every replication's Lloyd run, and once by
    # the lockstep k-means++ call. k-means++ computes no distances to the
    # last center it picks.
    counts = {}

    def counting(name):
        original = getattr(baselines, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(baselines, name, wrapper)

    for name in ("_check_k_and_data", "_distances_to_rows"):
        counting(name)
    x = generate(SynthSpec(k=6, rho=0.5, per_cluster=10, ambient_dim=12, seed=3)).embedded.matrix
    for replications in (1, 10):
        counts.clear()
        kmeans_solve(x, 6, KmeansParams(replications=replications, seed=4))
        assert counts == {"_check_k_and_data": 2, "_distances_to_rows": 5}


def test_kmeans_deterministic_and_selects_minimum():
    data = generate(SynthSpec(k=4, rho=0.6, per_cluster=10, ambient_dim=20, seed=16))
    params = KmeansParams(replications=8, seed=17)
    first = kmeans_solve(data.embedded.matrix, 4, params)
    second = kmeans_solve(data.embedded.matrix, 4, params)
    assert np.array_equal(first.labels, second.labels)
    assert first.trace.replication_objectives == second.trace.replication_objectives
    objectives = first.trace.replication_objectives
    assert len(objectives) == 8
    assert first.kmeans_objective == min(objectives)
    assert first.trace.replication_index == int(np.argmin(objectives))


def test_sr_fixed_point_from_identity_rotation():
    h = make_indicator([0, 0, 1, 1], 2)
    basis = validate_embedding(h.matrix)
    labels, obj, history, _ = _sr_once(basis, np.eye(2), SrParams())
    assert np.array_equal(labels, [0, 0, 1, 1])
    # Floor: sum over clusters of n_j * (1/sqrt(n_j) - 1)^2.
    floor = 2 * 2 * (1 / np.sqrt(2) - 1) ** 2
    assert obj == pytest.approx(floor, abs=1e-12)
    assert len(history) <= 2


def test_sr_assigns_nearest_rotation_row():
    # Rows dominated by one coordinate pick that column under R = I.
    basis = validate_embedding(np.array([[0.9, 0.1], [0.1, 0.9]]))
    labels, _, _, _ = _sr_once(basis, np.eye(2), SrParams())
    assert labels[0] == 0
    assert labels[1] == 1


def test_sr_matches_exhaustive_oracle():
    data = generate(SynthSpec(k=2, per_cluster=4, rho=0.4, ambient_dim=10, seed=18))
    result = sr_solve(data.embedded, SrParams(replications=10, seed=19))
    oracle_labels, oracle_value = exhaustive_best(data.embedded.matrix, 2, "sr")
    sr_objective = result.trace.replication_objectives[result.trace.replication_index]
    assert sr_objective == pytest.approx(oracle_value, abs=1e-9)
    assert accuracy(result.labels, oracle_labels) == 1.0


def test_sr_monotone_histories_and_selection():
    data = generate(SynthSpec(k=5, rho=0.6, per_cluster=8, ambient_dim=20, seed=20))
    result = sr_solve(data.embedded, SrParams(replications=6, seed=21))
    trace = result.trace
    for history in trace.replication_histories:
        assert np.all(np.diff(np.asarray(history)) <= 1e-12)
    objectives = trace.replication_objectives
    best = min(objectives)
    tied = [i for i, v in enumerate(objectives) if v <= best + 1e-12 * max(1.0, abs(best))]
    assert trace.replication_index == tied[0]


def test_sr_deterministic():
    data = generate(SynthSpec(k=3, rho=0.5, per_cluster=8, ambient_dim=15, seed=22))
    params = SrParams(replications=5, seed=23)
    first = sr_solve(data.embedded, params)
    second = sr_solve(data.embedded, params)
    assert np.array_equal(first.labels, second.labels)
    assert first.trace.replication_objectives == second.trace.replication_objectives


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(24)
    for k in (2, 3, 5):
        q = _random_orthogonal(k, rng)
        np.testing.assert_allclose(q.T @ q, np.eye(k), atol=1e-12)


def test_best_replication_ties_within_rounding():
    assert _best_replication([1.0 + 1e-13, 1.0]) == 0
    assert _best_replication([1.0 + 2e-12, 1.0]) == 1
    # Below 1 in magnitude the tolerance is absolute.
    assert _best_replication([5e-13, 0.0]) == 0
    assert _best_replication([2e-12, 0.0]) == 1
    assert _best_replication([1e6 + 1e-7, 1e6]) == 0
    assert _best_replication([1e6 + 1e-5, 1e6]) == 1
    assert _best_replication([3.0, 2.0, 2.0, 1.0]) == 3


def test_sr_winner_is_first_of_replications_tied_by_rounding():
    # Replications that reach the same partition under different cluster
    # numberings differ in the last bits of their objectives; the winner is
    # the lowest-index one, whatever the rounding.
    k, rho, seed, index = 50, 0.66, 2, 1
    data = generate(SynthSpec(k=k, rho=rho, per_cluster=40, seed=seed))
    params = SrParams(replications=10, seed=stable_cell_seed(seed, k, rho, "sr", index))
    result = sr_solve(data.embedded, params)
    objectives = result.trace.replication_objectives
    best = min(objectives)
    tied = [i for i, v in enumerate(objectives) if v <= best + 1e-12 * max(1.0, abs(best))]
    assert len(tied) > 1
    assert result.trace.replication_index == tied[0]
    streams = np.random.SeedSequence(params.seed).spawn(params.replications)
    for i in tied:
        rotation = _random_orthogonal(k, np.random.default_rng(streams[i]))
        labels, _, _, _ = _sr_once(data.embedded, rotation, params)
        assert accuracy(labels, result.labels) == 1.0


# Gates of the lean baselines against the loops they replace
# (tests/oracles.py): the acceptance sweep's 18 cells, with the sweep's own
# per-cell solver seeds, and the benchmark's two k=100 datasets.
SWEEP_CELLS = [
    (k, rho, seed, index)
    for k in (10, 25, 50)
    for rho in (0.33, 0.66)
    for index, seed in enumerate((1, 2, 3))
]
MANY_K_CELLS = [(100, rho, 0, 0) for rho in (0.33, 0.66)]


def _cell_data(k, rho, seed):
    return generate(SynthSpec(k=k, rho=rho, per_cluster=40, seed=seed))


def _row_indices(index_of_row: dict, rows):
    """Index of each of `rows` in the data that `index_of_row` maps by row bytes."""
    return np.array([index_of_row[row.tobytes()] for row in rows])


@pytest.mark.parametrize("k, rho, seed, index", SWEEP_CELLS + MANY_K_CELLS)
def test_kmeans_pp_init_matches_reference(k, rho, seed, index):
    x = _cell_data(k, rho, seed).embedded.matrix
    base = stable_cell_seed(seed, k, rho, "kmeans", index)
    index_of_row = {row.tobytes(): i for i, row in enumerate(x)}
    assert len(index_of_row) == x.shape[0]
    for stream in np.random.SeedSequence(base).spawn(10):
        new_rng, old_rng = np.random.default_rng(stream), np.random.default_rng(stream)
        new = kmeans_pp_init(x, k, [new_rng])[0]
        old = reference_kmeans_pp_init(x, k, old_rng)
        assert np.array_equal(new, old)
        # The same rows, so the same indices, and the same draws consumed.
        assert np.array_equal(_row_indices(index_of_row, new), _row_indices(index_of_row, old))
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


_ROWS = np.random.default_rng(35).standard_normal((4, 50))
# (data, k) makers: two sweep cells, raw points, and duplicate rows. In the
# last two every replication reaches all-zero weights and takes the uniform
# fallback: after the four distinct rows when each row appears twice, from
# the second center on when all rows are equal.
LOCKSTEP_CASES = {
    "embedded_k25": lambda: (_cell_data(25, 0.66, 2).embedded.matrix, 25),
    "embedded_k50": lambda: (_cell_data(50, 0.33, 1).embedded.matrix, 50),
    "raw_k20": lambda: (_cell_data(10, 0.33, 1).raw, 20),
    "rows_twice": lambda: (np.vstack([_ROWS, _ROWS]), 8),
    "rows_equal": lambda: (np.tile(_ROWS[:1], (6, 1)), 4),
}


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_kmeans_pp_init_lockstep_equals_one_stream_calls(case):
    # Run r of a lockstep call equals a call with generator r alone: the same
    # centers, and each generator left in the same state.
    x, k = LOCKSTEP_CASES[case]()
    streams = np.random.SeedSequence(36).spawn(10)
    lockstep_rngs = [np.random.default_rng(s) for s in streams]
    lockstep = kmeans_pp_init(x, k, lockstep_rngs)
    assert lockstep.shape == (10, k, x.shape[1])
    for stream, centers, rng in zip(streams, lockstep, lockstep_rngs):
        single_rng = np.random.default_rng(stream)
        assert np.array_equal(centers, kmeans_pp_init(x, k, [single_rng])[0])
        assert rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("k, rho, seed, index", SWEEP_CELLS[::3] + MANY_K_CELLS[:1])
def test_kmeans_solve_matches_reference(k, rho, seed, index):
    x = _cell_data(k, rho, seed).embedded.matrix
    params = KmeansParams(replications=10, seed=stable_cell_seed(seed, k, rho, "kmeans", index))
    new = kmeans_solve(x, k, params)
    old = []
    for stream in np.random.SeedSequence(params.seed).spawn(params.replications):
        centers = reference_kmeans_pp_init(x, k, np.random.default_rng(stream))
        old.append(reference_lloyd_solve(x, k, centers, params))
        _assert_same_lloyd(lloyd_solve(x, k, centers, params), old[-1])
    old_objectives = [r.kmeans_objective for r in old]
    assert new.trace.replication_objectives == old_objectives
    assert new.trace.replication_histories == [r.trace.objective_history for r in old]
    assert new.trace.replication_index == int(np.argmin(old_objectives))
    _assert_same_lloyd(new, old[new.trace.replication_index])


@pytest.mark.parametrize("k, rho, seed, index", SWEEP_CELLS + MANY_K_CELLS[1:])
def test_sr_matches_reference(k, rho, seed, index):
    data = _cell_data(k, rho, seed)
    params = SrParams(replications=10, seed=stable_cell_seed(seed, k, rho, "sr", index))
    old_runs = []
    for stream in np.random.SeedSequence(params.seed).spawn(params.replications):
        rotation = _random_orthogonal(k, np.random.default_rng(stream))
        new_labels, new_obj, new_history, _ = _sr_once(data.embedded, rotation, params)
        old_labels, old_obj, old_history = reference_sr_once(data.embedded, rotation, params)
        assert np.array_equal(new_labels, old_labels)
        assert len(new_history) == len(old_history)
        old_history = np.asarray(old_history)
        assert np.all(
            np.abs(np.asarray(new_history) - old_history)
            <= 1e-12 * np.maximum(1.0, np.abs(old_history))
        )
        assert new_obj == new_history[-1]
        old_runs.append((old_labels, old_obj))
    winner = sr_solve(data.embedded, params)
    old_labels, _ = old_runs[int(np.argmin([obj for _, obj in old_runs]))]
    assert accuracy(winner.labels, old_labels) == 1.0


def test_squared_distances_bit_identical_to_reference():
    rng = np.random.default_rng(25)
    for n, d, k in ((7, 3, 2), (200, 10, 9), (4000, 100, 100)):
        x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        centers = x[rng.choice(n, size=k, replace=False)] + rng.normal(0, 0.1, size=(k, d))
        x_sq = (x**2).sum(axis=1)
        new = _squared_distances(x, x_sq, centers)
        assert np.array_equal(new, reference_squared_distances(x, x_sq, centers))
        assert np.all(new >= 0.0)


def test_kmeans_pp_near_duplicates_keep_direct_distances():
    # In 50 dimensions the norm expansion of a zero distance rounds to about
    # 1e-13. Points within the cancellation band of a center get their
    # distance by direct difference instead: exact duplicates weigh exactly
    # 0 and a near-duplicate keeps its direct value.
    rng = np.random.default_rng(26)
    base = 3.0 * rng.standard_normal(50)
    data = np.vstack([base, base, base + 1e-7 * rng.standard_normal(50), rng.standard_normal(50)])
    x_sq = (data**2).sum(axis=1)
    d2 = baselines._distances_to_rows(data, x_sq, np.array([0]))[0]
    assert d2[0] == 0.0 and d2[1] == 0.0
    assert d2[2] == ((data[2] - data[0]) ** 2).sum()
    assert d2[3] == pytest.approx(((data[3] - data[0]) ** 2).sum(), rel=1e-12)
    # Every row twice: once each distinct row is a center, all weights are 0
    # and the uniform fallback picks the unchosen duplicates.
    rows = rng.standard_normal((4, 50))
    twice = np.vstack([rows, rows])
    for seed in range(20):
        centers = kmeans_pp_init(twice, 8, [np.random.default_rng(seed)])[0]
        assert np.array_equal(np.sort(centers, axis=0), np.sort(twice, axis=0))


def test_kmeans_solve_scores_only_the_winner(monkeypatch):
    # Replications skip the kind objective; the winner's is computed once,
    # equal to what a lone lloyd_solve reports for the same labels.
    calls = []
    score = baselines._kind_objective_if_embedded

    def counting(x, labels):
        calls.append(labels)
        return score(x, labels)

    monkeypatch.setattr(baselines, "_kind_objective_if_embedded", counting)
    u = generate(SynthSpec(k=5, rho=0.6, per_cluster=12, ambient_dim=20, seed=31)).embedded.matrix
    result = kmeans_solve(u, 5, KmeansParams(replications=6, seed=32))
    assert len(calls) == 1 and np.array_equal(calls[0], result.labels)
    assert result.kind_objective == score(u, result.labels)
    raw = np.random.default_rng(33).standard_normal((40, 3))
    assert kmeans_solve(raw, 3, KmeansParams(replications=3, seed=34)).kind_objective is None


def test_sr_stop_reasons_one_per_replication():
    # Each replication's reason agrees with its history: "cap" fills
    # max_iters, "tol" ends on a small step, "uphill" stops short of the cap.
    seen = set()
    for k, rho, seed, max_iters in ((10, 0.66, 1, 100), (25, 0.9, 2, 3), (50, 0.66, 3, 100)):
        data = _cell_data(k, rho, seed)
        params = SrParams(replications=6, seed=seed, max_iters=max_iters)
        trace = sr_solve(data.embedded, params).trace
        assert len(trace.stop_reasons) == params.replications
        for stop, history in zip(trace.stop_reasons, trace.replication_histories):
            seen.add(stop)
            if stop == "cap":
                assert len(history) == max_iters
            elif stop == "tol":
                assert history[-2] - history[-1] <= params.tol * max(history[-2], 1e-12)
            elif stop == "floor":
                assert history[-1] <= 1e-12
            else:
                assert stop == "uphill" and len(history) < max_iters
    assert {"cap", "tol"} <= seen


def test_lloyd_stop_reasons_one_per_replication():
    # A "tol" run ends where a longer cap would also end it; a "cap" run
    # would go on. max_iters=3 gives both, one "tol" on the third sweep.
    k, rho, seed = 25, 0.9, 2
    x = _cell_data(k, rho, seed).embedded.matrix
    params = KmeansParams(replications=6, seed=seed, max_iters=3)
    trace = kmeans_solve(x, k, params).trace
    assert len(trace.stop_reasons) == params.replications
    longer = KmeansParams(replications=1, max_iters=params.max_iters + 5)
    streams = np.random.SeedSequence(params.seed).spawn(params.replications)
    for stop, history, stream in zip(trace.stop_reasons, trace.replication_histories, streams):
        centers = kmeans_pp_init(x, k, [np.random.default_rng(stream)])[0]
        single = lloyd_solve(x, k, centers, params)
        assert single.trace.stop_reasons == [stop]
        assert single.trace.objective_history == history
        rerun = len(lloyd_solve(x, k, centers, longer).trace.objective_history)
        assert rerun == len(history) if stop == "tol" else rerun > len(history) == params.max_iters
    assert set(trace.stop_reasons) == {"tol", "cap"}
    assert "tol" in [s for s, h in zip(trace.stop_reasons, trace.replication_histories) if len(h) == 3]


def test_best_of_takes_the_first_tied_best_and_traces_every_run():
    # Run i draws from the i-th spawned stream. Runs 1 and 2 tie within
    # REPLICATION_TIE_RTOL, so run 1 wins over the exact minimum of run 2.
    params = KmeansParams(replications=3, seed=9)
    objectives = [2.0, 1.0 + 1e-13, 1.0]
    draws = []

    def run(draw):
        i = len(draws)
        draws.append(draw)
        return np.full(4, i), objectives[i], [5.0] * (i + 1), f"stop{i}"

    labels, trace = baselines._best_of(params, lambda rngs: [rng.random() for rng in rngs], run)
    streams = np.random.SeedSequence(params.seed).spawn(params.replications)
    assert draws == [np.random.default_rng(stream).random() for stream in streams]
    assert labels.tolist() == [1] * 4
    assert trace.replication_index == 1
    assert trace.replication_objectives == objectives
    assert trace.objective_history == [5.0, 5.0] and trace.outer_iters == 2
    assert trace.replication_histories == [[5.0], [5.0, 5.0], [5.0, 5.0, 5.0]]
    assert trace.stop_reasons == ["stop0", "stop1", "stop2"]


@pytest.mark.parametrize("method", ["kmeans", "sr"])
def test_replicated_trace_is_the_winners(method):
    # outer_iters counts the winner's history, which is also its entry in
    # replication_histories; each replication leaves one stop reason.
    data = _cell_data(10, 0.66, 1)
    if method == "kmeans":
        params = KmeansParams(replications=5, seed=3)
        result = kmeans_solve(data.embedded.matrix, 10, params)
    else:
        params = SrParams(replications=5, seed=3)
        result = sr_solve(data.embedded, params)
    trace = result.trace
    assert trace.outer_iters == len(trace.objective_history) > 0
    assert trace.objective_history == trace.replication_histories[trace.replication_index]
    assert len(trace.stop_reasons) == len(trace.replication_histories) == params.replications
    assert len(trace.replication_objectives) == params.replications
    if method == "kmeans":
        assert result.kmeans_objective == trace.replication_objectives[trace.replication_index]
