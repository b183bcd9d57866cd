import dataclasses
import inspect
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from kindicators.core import (
    ClusteringError,
    ClusterResult,
    RelaxedAssignment,
    make_indicator,
    validate_embedding,
)
from kindicators.baselines import KmeansParams, SrParams, kmeans_solve, lloyd_solve, sr_solve
from kindicators.core import SolverTrace
from kindicators.evaluation import accuracy, kind_objective
from kindicators import core, kindap
from kindicators.kindap import (
    OBJECTIVE_FLOOR,
    KindapParams,
    inner_solve,
    kindap_solve,
    round_to_indicator,
    warm_start_centers,
)
from kindicators.synthgen import SynthSpec, generate

from oracles import (
    exhaustive_best,
    gaussian_blobs,
    random_orthonormal,
    reference_kindap_solve,
    reference_round_to_indicator,
)
from procrustes_grid import kindap_failures


def _indicator_basis():
    return validate_embedding(make_indicator([0, 0, 1, 1, 2], 3).matrix)


def test_params_validation():
    with pytest.raises(ValueError):
        KindapParams(max_outer=0)
    with pytest.raises(ValueError):
        KindapParams(tol_inner=0.0)


@pytest.mark.parametrize("field", ["max_outer", "max_inner"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
def test_params_reject_non_integer_caps(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        KindapParams(**{field: value})


@pytest.mark.parametrize("field", ["tol_inner", "tol_outer"])
@pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None])
def test_params_reject_non_real_tolerances(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
        KindapParams(**{field: value})


def test_params_accept_integer_and_numpy_tolerances():
    params = KindapParams(tol_inner=1, tol_outer=np.float32(0.5))
    assert (params.tol_inner, params.tol_outer) == (1, 0.5)


def test_params_accept_numpy_integer_caps():
    params = KindapParams(max_outer=np.int64(7), max_inner=np.int32(5))
    assert (params.max_outer, params.max_inner) == (7, 5)


@pytest.mark.parametrize(
    "params", [KindapParams(), KmeansParams(), SrParams(), SynthSpec(k=2)],
    ids=["KindapParams", "KmeansParams", "SrParams", "SynthSpec"],
)
def test_parameter_types_are_frozen(params):
    # Assigning a field used to skip the checks: with max_outer = 0,
    # kindap_solve died on a bare AssertionError.
    name = dataclasses.fields(params)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(params, name, 0)
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        dataclasses.replace(params, **{name: 0})


def test_solvers_default_to_their_parameter_types():
    defaults = [(kindap_solve, KindapParams()), (lloyd_solve, KmeansParams()),
                (kmeans_solve, KmeansParams()), (sr_solve, SrParams())]
    for solve, params in defaults:
        assert inspect.signature(solve).parameters["params"].default == params


def test_inner_solve_indicator_fixed_point():
    basis = _indicator_basis()
    trace, params = SolverTrace(), KindapParams()
    n_mat, rotation, iters, _ = inner_solve(np.eye(3), basis, params, trace, params.max_inner)
    assert iters <= 2
    gap = float(((basis.matrix @ rotation - n_mat) ** 2).sum())
    assert gap <= 1e-12
    assert trace.objective_history[-1] <= 1e-12


def test_inner_solve_monotone_on_synth():
    data = generate(SynthSpec(k=3, rho=0.33, per_cluster=40, seed=1))
    trace, params = SolverTrace(), KindapParams()
    inner_solve(np.eye(3), data.embedded, params, trace, params.max_inner)
    history = np.asarray(trace.objective_history)
    assert history.size >= 2
    assert np.all(np.diff(history) <= 1e-12)


def test_inner_solve_never_increases_set_gap():
    rng = np.random.default_rng(21)
    basis = validate_embedding(random_orthonormal(10, 2, rng))
    initial_gap = float(
        np.linalg.norm(basis.matrix - np.clip(basis.matrix, 0.0, 1.0))
    )
    params = KindapParams()
    n_mat, rotation, _, _ = inner_solve(np.eye(2), basis, params, SolverTrace(), params.max_inner)
    final_gap = float(np.linalg.norm(basis.matrix @ rotation - n_mat))
    assert final_gap <= initial_gap + 1e-12


def test_inner_gap_matches_direct_residual():
    # The gap is read off the Procrustes singular values; it must equal the
    # residual ||B R - N||_F^2 of the rotation and relaxed matrix returned.
    rng = np.random.default_rng(2024)
    for _ in range(40):
        k = int(rng.integers(2, 13))
        n = int(rng.integers(k, 200))
        basis = validate_embedding(random_orthonormal(n, k, rng))
        start = random_orthonormal(k, k, rng)
        params = KindapParams(max_inner=int(rng.integers(1, 5)))
        trace = SolverTrace()
        n_mat, rotation, iters, _ = inner_solve(start, basis, params, trace, params.max_inner)
        gap = trace.objective_history[-1]
        direct = float(((basis.matrix @ rotation - n_mat) ** 2).sum())
        assert len(trace.objective_history) == iters
        assert abs(gap - direct) <= 1e-12 * max(1.0, direct)


def test_round_keeps_largest_per_row():
    labels, weights = round_to_indicator(np.array([[0.9, 0.1], [0.2, 0.7]]))
    assert np.array_equal(labels, [0, 1])
    np.testing.assert_allclose(weights, [1.0, 1.0])


def test_round_idempotent_on_indicator():
    original = make_indicator([0, 1, 1, 0], 2)
    labels, weights = round_to_indicator(original.matrix)
    np.testing.assert_allclose(weights, original.values, atol=1e-15)
    assert np.array_equal(labels, original.labels)


def test_round_repairs_empty_column():
    # Every argmax lands in column 0; the repair rule moves the row with the
    # largest column-1 value among clusters that can spare one (row 0 here).
    n_mat = np.array([[0.9, 0.3], [0.8, 0.2], [0.7, 0.1]])
    labels, weights = round_to_indicator(n_mat)
    assert np.array_equal(labels, [1, 0, 0])
    norm0 = np.hypot(0.8, 0.7)
    np.testing.assert_allclose(weights, [1.0, 0.8 / norm0, 0.7 / norm0])


def test_round_matches_dense_reference():
    # Labels and weights fill the same dense indicator, bit for bit, as the
    # rounding that built it entry by entry; repaired rows included.
    rng = np.random.default_rng(12)
    for _ in range(30):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(k, 60))
        n_mat = rng.uniform(0.0, 1.0, size=(n, k)) * (rng.uniform(size=(n, k)) < 0.7)
        n_mat[:, -1] = 0.0  # an empty column, so the repair runs
        relaxed = RelaxedAssignment(n_mat)
        labels, weights = round_to_indicator(relaxed.matrix)
        old = reference_round_to_indicator(relaxed)
        assert np.array_equal(labels, old.labels)
        dense = np.zeros((n, k))
        dense[np.arange(n), labels] = weights
        assert np.array_equal(dense, old.matrix)


def test_round_ties_go_to_lowest_column():
    labels, _ = round_to_indicator(np.array([[0.5, 0.5], [0.2, 0.6]]))
    assert np.array_equal(labels, [0, 1])


def test_round_fails_when_fewer_rows_than_columns():
    with pytest.raises(ClusteringError, match="^cluster 0 is empty$"):
        round_to_indicator(np.array([[0.9, 0.1]]))


def test_kindap_records_degenerate_projection_warnings():
    # A basis column that clamps to zero makes the first Procrustes step
    # singular; the solver notes it in the trace and keeps going.
    basis = validate_embedding(np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]))
    result = kindap_solve(basis)
    assert any("degenerate" in w for w in result.trace.warnings)
    assert set(result.labels) == {0, 1}


def test_kindap_survives_all_negative_basis():
    # Clamping can zero out the whole matrix; rounding repair still produces
    # a valid full-k labeling.
    basis = validate_embedding(np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]))
    result = kindap_solve(basis)
    assert sorted(np.bincount(result.labels, minlength=2)) >= [1, 1]
    assert np.isfinite(result.kind_objective)


def test_kindap_global_floor_on_indicator_basis():
    basis = _indicator_basis()
    result = kindap_solve(basis)
    assert result.kind_objective <= 1e-10
    assert result.trace.outer_iters == 1
    assert accuracy(result.labels, [0, 0, 1, 1, 2]) == 1.0


def test_kindap_recovers_synth_ground_truth():
    data = generate(SynthSpec(k=10, rho=0.33, per_cluster=40, seed=1))
    result = kindap_solve(data.embedded)
    assert accuracy(result.labels, data.truth) == 1.0


def test_kindap_matches_exhaustive_oracle():
    data = generate(SynthSpec(k=2, per_cluster=4, rho=0.4, ambient_dim=10, seed=5))
    result = kindap_solve(data.embedded)
    oracle_labels, oracle_value = exhaustive_best(data.embedded.matrix, 2, "kind")
    assert result.kind_objective == pytest.approx(oracle_value, abs=1e-9)
    assert accuracy(result.labels, oracle_labels) == 1.0


def test_kindap_deterministic():
    data = generate(SynthSpec(k=5, rho=0.5, per_cluster=10, ambient_dim=30, seed=9))
    first = kindap_solve(data.embedded)
    second = kindap_solve(data.embedded)
    assert np.array_equal(first.labels, second.labels)
    assert first.trace.objective_history == second.trace.objective_history
    assert first.trace.inner_iters_per_outer == second.trace.inner_iters_per_outer
    assert first.kind_objective == second.kind_objective


def test_kindap_permutation_equivariant():
    data = generate(SynthSpec(k=4, rho=0.4, per_cluster=8, ambient_dim=20, seed=13))
    rng = np.random.default_rng(3)
    perm = rng.permutation(data.embedded.n)
    base = kindap_solve(data.embedded)
    permuted = kindap_solve(validate_embedding(data.embedded.matrix[perm]))
    assert np.array_equal(permuted.labels, base.labels[perm])


def test_kindap_partition_invariant_to_basis_rotation():
    data = generate(SynthSpec(k=4, rho=0.4, per_cluster=8, ambient_dim=20, seed=17))
    rng = np.random.default_rng(4)
    rotation = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    base = kindap_solve(data.embedded)
    rotated = kindap_solve(validate_embedding(data.embedded.matrix @ rotation))
    assert accuracy(rotated.labels, base.labels) == 1.0


def test_kindap_best_objective_tracking():
    data = generate(SynthSpec(k=6, rho=0.6, per_cluster=12, ambient_dim=40, seed=21))
    result = kindap_solve(data.embedded)
    trace = result.trace
    assert result.kind_objective == pytest.approx(
        min(trace.outer_objective_history), abs=0
    )
    recomputed = kind_objective(data.embedded, make_indicator(result.labels, 6))
    assert result.kind_objective == pytest.approx(recomputed, abs=1e-9)


def test_kindap_trace_lengths_consistent():
    data = generate(SynthSpec(k=5, rho=0.5, per_cluster=8, ambient_dim=16, seed=23))
    trace = kindap_solve(data.embedded).trace
    assert trace.outer_iters == len(trace.inner_iters_per_outer)
    assert trace.outer_iters == len(trace.outer_objective_history)
    assert len(trace.objective_history) == sum(trace.inner_iters_per_outer)
    # Each inner phase is nonincreasing on its own.
    offset = 0
    for count in trace.inner_iters_per_outer:
        phase = np.asarray(trace.objective_history[offset : offset + count])
        assert np.all(np.diff(phase) <= 1e-12)
        offset += count


def test_warm_start_centers_rejects_wrong_label_length():
    basis = validate_embedding(np.eye(4)[:, :2])
    result = ClusterResult(np.array([0, 1, 1]), None, 0.0)
    with pytest.raises(ValueError, match="^labels length must match the embedding$"):
        warm_start_centers(basis, result)


def test_warm_start_centers_singletons():
    basis = validate_embedding(np.eye(2))
    result = kindap_solve(basis)
    centers = warm_start_centers(basis, result)
    np.testing.assert_allclose(np.sort(centers, axis=0), np.sort(np.eye(2), axis=0))


def test_warm_start_centers_identical_points():
    basis = _indicator_basis()
    result = kindap_solve(basis)
    centers = warm_start_centers(basis, result)
    for j in range(3):
        members = basis.matrix[result.labels == j]
        np.testing.assert_allclose(centers[j], members[0], atol=1e-12)


def test_warm_start_centers_matches_mean_oracle():
    data = generate(SynthSpec(k=3, rho=0.4, per_cluster=6, ambient_dim=12, seed=29))
    result = kindap_solve(data.embedded)
    centers = warm_start_centers(data.embedded, result)
    for j in range(3):
        members = data.embedded.matrix[result.labels == j]
        expected = np.array([members[:, c].sum() / len(members) for c in range(3)])
        np.testing.assert_allclose(centers[j], expected, atol=1e-12)


# The acceptance sweep's cells (tests/test_acceptance.py) plus the k=100,
# rho=0.33 cell where the replicated baselines fall behind.
EQUIVALENCE_CELLS = [
    (k, rho, seed) for k in (10, 25, 50) for rho in (0.33, 0.66) for seed in (1, 2, 3)
] + [(100, 0.33, 1)]


# The benchmark's two k=100 datasets (generator seed 0, rows unpermuted).
MANY_K_CELLS = [(100, 0.33, 0), (100, 0.66, 0)]


@lru_cache(maxsize=None)
def _reference_run(k, rho, seed):
    """A SynthSpec cell and the first-written loop's result on it, made once per session."""
    data = generate(SynthSpec(k=k, rho=rho, per_cluster=40, ambient_dim=300, seed=seed))
    return data, reference_kindap_solve(data.embedded)


@pytest.mark.parametrize("k, rho, seed", EQUIVALENCE_CELLS)
def test_kindap_matches_reference_loop(monkeypatch, k, rho, seed):
    # A budget of max_inner runs every inner phase in full: the rule the
    # reference was written with.
    monkeypatch.setattr(kindap, "INNER_BUDGET", KindapParams().max_inner)
    data, old = _reference_run(k, rho, seed)
    new = kindap_solve(data.embedded)
    assert np.array_equal(new.labels, old.labels)
    assert new.trace.inner_iters_per_outer == old.trace.inner_iters_per_outer
    assert new.trace.outer_iters == old.trace.outer_iters
    old_history = np.asarray(old.trace.objective_history)
    new_history = np.asarray(new.trace.objective_history)
    assert np.all(
        np.abs(new_history - old_history) <= 1e-10 * np.maximum(1.0, np.abs(old_history))
    )
    assert abs(new.kind_objective - old.kind_objective) <= 1e-12


@pytest.mark.parametrize("k, rho, seed", EQUIVALENCE_CELLS + MANY_K_CELLS)
def test_inner_budget_keeps_the_reference_partition(k, rho, seed):
    # The default budgeted phases change the trajectory but not where it ends
    # on recoverable data: the same partition, the same objective.
    data, old = _reference_run(k, rho, seed)
    new = kindap_solve(data.embedded)
    assert accuracy(new.labels, old.labels) == 1.0
    assert abs(new.kind_objective - old.kind_objective) <= 1e-12 * max(1.0, old.kind_objective)


@pytest.mark.parametrize("k, rho, seed", EQUIVALENCE_CELLS + MANY_K_CELLS)
def test_kindap_matches_svd_procrustes(k, rho, seed):
    # The eigendecomposition route of procrustes_rotation changes the last
    # bits of R and sigma only: the default solve follows the same path as
    # with every Procrustes step an SVD (the gate of tests/procrustes_grid.py).
    basis = generate(SynthSpec(k=k, rho=rho, per_cluster=40, ambient_dim=300, seed=seed)).embedded
    assert kindap_failures(f"k{k}_rho{rho}_s{seed}", basis) == []


def test_inner_solve_out_matches_its_own_buffer():
    basis = generate(SynthSpec(k=10, rho=0.33, per_cluster=40, ambient_dim=300, seed=1)).embedded
    alone = inner_solve(np.eye(10), basis, KindapParams(), SolverTrace(), 7)
    n_mat = np.full((400, 10), np.nan)
    shared = inner_solve(np.eye(10), basis, KindapParams(), SolverTrace(), 7, out=n_mat)
    assert shared[0] is n_mat
    assert np.array_equal(shared[0], alone[0]) and np.array_equal(shared[1], alone[1])
    assert shared[2:] == alone[2:]


class _CountingNumpy:
    """numpy for `kindap`, counting np.matmul calls: the B R products, each into the N buffer."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


def _without_buffer(inner):
    """`inner` allocating its own N in every phase, so no phase sees another's buffer."""
    def solve(rotation, basis, params, trace, budget, out=None):
        return inner(rotation, basis, params, trace, budget)

    return solve


@pytest.mark.parametrize(
    "data, params",
    [
        (generate(SynthSpec(k=10, rho=0.66, per_cluster=20, ambient_dim=60, seed=2)), KindapParams()),
        (gaussian_blobs(20, 0.45, seed=0), KindapParams()),
        (gaussian_blobs(20, 0.35, seed=1), KindapParams(max_inner=4, max_outer=5)),
    ],
    ids=["synth", "blobs", "blobs_capped"],
)
def test_inner_phase_makes_one_product_per_iteration(monkeypatch, data, params):
    # A phase of t iterations makes t products B R: the first from the start
    # rotation, none after the last iteration, which would overwrite N.
    numpy = _CountingNumpy()
    per_phase = []
    inner = kindap.inner_solve

    def counted(*args, **kwargs):
        before = numpy.matmuls
        result = inner(*args, **kwargs)
        per_phase.append(numpy.matmuls - before)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(kindap, "np", numpy)
        patch.setattr(kindap, "inner_solve", counted)
        shared = kindap_solve(data.embedded, params)
    assert per_phase == shared.trace.inner_iters_per_outer
    assert set(shared.trace.stop_reasons) - {"tol"}
    # Nothing a phase leaves in the reused buffer reaches the next phase.
    monkeypatch.setattr(kindap, "inner_solve", _without_buffer(inner))
    fresh = kindap_solve(data.embedded, params)
    assert np.array_equal(shared.labels, fresh.labels)
    assert shared.trace.objective_history == fresh.trace.objective_history
    assert shared.trace.outer_objective_history == fresh.trace.outer_objective_history
    assert shared.trace.stop_reasons == fresh.trace.stop_reasons
    assert shared.trace.outer_stop_reason == fresh.trace.outer_stop_reason
    assert shared.relaxed.matrix.tobytes() == fresh.relaxed.matrix.tobytes()


def test_kindap_relaxed_is_the_frozen_n_buffer(monkeypatch):
    # The last N goes to RelaxedAssignment as it is: read-only, owning its
    # data, and not copied on the way.
    basis = generate(SynthSpec(k=10, rho=0.33, per_cluster=40, ambient_dim=300, seed=1)).embedded
    handed = []
    readonly = core._readonly

    def recording(values, dtype=float):
        handed.append(values)
        return readonly(values, dtype)

    monkeypatch.setattr(core, "_readonly", recording)
    matrix = kindap_solve(basis).relaxed.matrix
    assert any(values is matrix for values in handed)
    assert matrix.flags.owndata and matrix.base is None
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 0.5


def test_kindap_solve_peak_memory_is_one_n_by_k_buffer():
    # B R is clipped in place in one buffer, allocated once for all phases,
    # and `relaxed` keeps that buffer itself: the solve peaks at about 1.2
    # n x k arrays, so a second n x k buffer breaks the bound.
    basis = generate(SynthSpec(k=50, per_cluster=200, rho=0.66, ambient_dim=100)).embedded
    n, k = basis.matrix.shape
    tracemalloc.start()
    try:
        result = kindap_solve(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.trace.outer_iters >= 2
    assert peak <= 1.5 * n * k * 8


def _replay_budget_rule(trace, params, budget):
    """Check each phase's stop reason and length against the budget rule, and the outer stop."""
    assert len(trace.stop_reasons) == trace.outer_iters == len(trace.inner_iters_per_outer)
    f = trace.outer_objective_history
    doubled = False
    for i, (count, stop) in enumerate(zip(trace.inner_iters_per_outer, trace.stop_reasons)):
        last_allowed = i == params.max_outer - 1
        limit = params.max_inner if last_allowed else min(budget, params.max_inner)
        if stop == "budget":
            assert limit < params.max_inner and count == limit
        elif stop == "cap":
            assert limit == params.max_inner and count == limit
        else:
            assert stop == "tol" and count <= limit
        stalled = i > 0 and f[i - 1] - f[i] <= params.tol_outer * max(f[i - 1], OBJECTIVE_FLOOR)
        if i < len(f) - 1:
            assert f[i] > OBJECTIVE_FLOOR and not (stalled and stop != "budget")
            if stalled:
                budget, doubled = min(2 * budget, params.max_inner), True
    last_stalled = stalled and trace.stop_reasons[-1] != "budget"
    # A stall in the phase at max_outer still means the solve ran out of phases.
    last_stalled = last_stalled and trace.outer_iters < params.max_outer
    expected = "floor" if f[-1] <= OBJECTIVE_FLOOR else "tol" if last_stalled else "cap"
    assert trace.outer_stop_reason == expected
    if expected == "cap":
        assert trace.outer_iters == params.max_outer
        assert trace.stop_reasons[-1] != "budget"
    return doubled


def _budget_rule_cases():
    """(basis, params, INNER_BUDGET) triples; their phases end on "budget", "tol" and "cap"."""
    default = kindap.INNER_BUDGET
    return [
        (generate(SynthSpec(k=10, rho=rho, per_cluster=20, ambient_dim=60, seed=seed)).embedded, p, b)
        for rho in (0.33, 0.9)
        for seed in (0, 1)
        for p, b in (
            (KindapParams(), default),
            (KindapParams(max_inner=9), 2),
            (KindapParams(), 1),
            (KindapParams(max_inner=3), default),
        )
    ] + [
        (gaussian_blobs(20, sigma, seed=0).embedded, p, b)
        for sigma in (0.35, 0.45)
        for p, b in ((KindapParams(), default), (KindapParams(max_inner=10, max_outer=6), 3))
    ]


def test_kindap_stop_reasons_follow_the_budget_rule(monkeypatch):
    # Small budgets and caps, so phases end on each of "budget", "tol" and
    # "cap", and stalls double the budget.
    seen, doubled = set(), False
    for basis, params, budget in _budget_rule_cases():
        monkeypatch.setattr(kindap, "INNER_BUDGET", budget)
        trace = kindap_solve(basis, params).trace
        doubled |= _replay_budget_rule(trace, params, budget)
        seen.update(trace.stop_reasons)
        seen.add("outer " + trace.outer_stop_reason)
    assert doubled
    assert seen >= {"budget", "tol", "cap", "outer tol", "outer cap"}


def test_resumed_phase_continues_the_stalled_one_bit_for_bit():
    # A phase resumed from the rotation the stalled phase returned follows
    # the path of one longer phase: the same gaps, N and R, bit for bit.
    basis = generate(SynthSpec(k=10, rho=0.33, per_cluster=40, ambient_dim=300, seed=1)).embedded
    params = KindapParams()
    whole_trace, split_trace = SolverTrace(), SolverTrace()
    whole = inner_solve(np.eye(10), basis, params, trace=whole_trace, budget=9)
    first = inner_solve(np.eye(10), basis, params, trace=split_trace, budget=3)
    resumed = inner_solve(first[1], basis, params, trace=split_trace, budget=6)
    assert whole[2:] == (9, "budget") and first[2:] == (3, "budget") and resumed[2:] == (6, "budget")
    assert whole_trace.objective_history == split_trace.objective_history
    assert whole[0].tobytes() == resumed[0].tobytes()
    assert whole[1].tobytes() == resumed[1].tobytes()


def test_stalled_budget_phase_is_resumed_not_restarted(monkeypatch):
    # After a phase that spent its budget and left the outer objective
    # stalled, the next phase goes on from that phase's last rotation: its
    # gap starts no higher than where the stalled phase stopped, and no
    # restart Procrustes step is taken. Every other phase ends in a restart.
    calls = []
    procrustes = kindap.procrustes_rotation

    def counted(cross):
        calls.append(1)
        return procrustes(cross)

    monkeypatch.setattr(kindap, "procrustes_rotation", counted)
    resumes = 0
    for basis, params, budget in _budget_rule_cases():
        monkeypatch.setattr(kindap, "INNER_BUDGET", budget)
        calls.clear()
        trace = kindap_solve(basis, params).trace
        f, inner = trace.outer_objective_history, trace.inner_iters_per_outer
        ends = np.cumsum(inner)
        resumed = 0
        # Phase i resumes when phase i - 1 ended on "budget" and stalled.
        for i in range(2, trace.outer_iters):
            stalled = f[i - 2] - f[i - 1] <= params.tol_outer * max(f[i - 2], OBJECTIVE_FLOOR)
            if stalled and trace.stop_reasons[i - 1] == "budget":
                resumed += 1
                last_gap = trace.objective_history[ends[i - 1] - 1]
                first_gap = trace.objective_history[ends[i - 1]]
                assert first_gap <= last_gap + 1e-12 * max(1.0, last_gap)
        restarts = trace.outer_iters - 1 - resumed
        assert len(calls) == sum(inner) + restarts
        resumes += resumed
    assert resumes


def test_cap_ended_solve_closes_with_a_full_phase():
    # Every phase before the cap is cut short by the budget; the last one
    # runs to tol_inner or max_inner, so `relaxed` comes from a full phase.
    basis = gaussian_blobs(20, 0.45, seed=0).embedded
    for max_outer in (1, 2, 3):
        trace = kindap_solve(basis, KindapParams(max_outer=max_outer)).trace
        assert trace.outer_stop_reason == "cap"
        assert trace.stop_reasons[:-1] == ["budget"] * (max_outer - 1)
        assert trace.stop_reasons[-1] in ("tol", "cap")
        assert trace.inner_iters_per_outer[-1] > kindap.INNER_BUDGET


def test_stall_in_the_phase_at_max_outer_is_reported_as_cap():
    # The default solve takes 3 phases. At max_outer 2 the second phase runs
    # without the budget and the outer objective stalls after it, but the
    # solve was cut short by the cap, and the stop reason says so.
    basis = generate(SynthSpec(k=5, rho=0.33, seed=1)).embedded
    assert kindap_solve(basis).trace.outer_iters == 3
    trace = kindap_solve(basis, KindapParams(max_outer=2)).trace
    f = trace.outer_objective_history
    assert trace.inner_iters_per_outer == [3, 7]
    assert f[0] - f[1] <= KindapParams().tol_outer * f[0]
    assert trace.outer_stop_reason == "cap"


def test_kindap_floor_stop_reason():
    trace = kindap_solve(_indicator_basis()).trace
    assert trace.outer_stop_reason == "floor"
    assert len(trace.stop_reasons) == 1


def test_full_budget_reports_no_budget_stops(monkeypatch):
    monkeypatch.setattr(kindap, "INNER_BUDGET", KindapParams().max_inner)
    data = generate(SynthSpec(k=25, rho=0.66, per_cluster=40, ambient_dim=300, seed=1))
    trace = kindap_solve(data.embedded).trace
    assert set(trace.stop_reasons) <= {"tol", "cap"}


# Gaussian blobs (tests/oracles.py) at d = k: overlapping clusters where
# KindAP and k-means both miss, so the budget can change which local minimum
# a run ends in. These are the cells where KindAP's accuracy is 0.83-1.0;
# tests/budget_grid.py runs the whole family, with k = 50 at sigma 0.45 and
# k = 100 (7 s and 80 s of solves on 2 cores).
BLOB_CELLS = [(20, sigma, seed) for sigma in (0.25, 0.35, 0.45) for seed in (0, 1, 2)] + [
    (50, sigma, seed) for sigma in (0.25, 0.35) for seed in (0, 1, 2)
]


def test_inner_budget_no_worse_on_gaussian_blobs(monkeypatch):
    cells = [gaussian_blobs(k, sigma, seed) for k, sigma, seed in BLOB_CELLS]
    new = [kindap_solve(data.embedded) for data in cells]
    monkeypatch.setattr(kindap, "INNER_BUDGET", KindapParams().max_inner)
    old = [kindap_solve(data.embedded) for data in cells]
    for cell, o, n in zip(BLOB_CELLS, old, new):
        assert n.kind_objective <= o.kind_objective * (1 + 1e-4), cell
    old_acc = [accuracy(o.labels, data.truth) for o, data in zip(old, cells)]
    new_acc = [accuracy(n.labels, data.truth) for n, data in zip(new, cells)]
    assert sum(n.kind_objective for n in new) <= sum(o.kind_objective for o in old)
    assert np.mean(new_acc) >= np.mean(old_acc)
