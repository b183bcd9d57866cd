"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic sweep behind
criteria 1 and 6 runs once per session and is shared.
"""

import json
import time

import numpy as np
import pytest

from kindicators.baselines import KmeansParams, SrParams, kmeans_solve, sr_solve
from kindicators.cli import main, run_bench, run_method, write_matrix_csv
from kindicators.core import validate_embedding
from kindicators.evaluation import accuracy, soft_indicator
from kindicators.kindap import KindapParams, kindap_solve
from kindicators.projections import procrustes_rotation
from kindicators.synthgen import SynthSpec, generate

from oracles import (
    exhaustive_best,
    projection_distance,
    random_orthonormal,
    sampled_rotation_min,
    subspace_distance,
)

SWEEP_K = (10, 25, 50)
SWEEP_RHO = (0.33, 0.66)
SWEEP_SEEDS = (1, 2, 3)
SWEEP_METHODS = ("kindap", "kmeans", "sr")
SWEEP_TIME_BUDGET_SECONDS = 120.0


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")


@pytest.fixture(scope="module")
def sweep():
    started = time.perf_counter()
    cells = run_bench(
        list(SWEEP_K),
        list(SWEEP_RHO),
        list(SWEEP_METHODS),
        replications=10,
        seeds=list(SWEEP_SEEDS),
        per_cluster=40,
        ambient_dim=300,
        quiet=True,
    )
    elapsed = time.perf_counter() - started
    return cells, elapsed


def test_criterion_1_kindap_recovers_ground_truth(sweep):
    cells, elapsed = sweep
    kindap_cells = [c for c in cells if c.method == "kindap"]
    assert len(kindap_cells) == len(SWEEP_K) * len(SWEEP_RHO) * len(SWEEP_SEEDS)
    imperfect = [
        (c.k, c.rho, c.seed, c.accuracy)
        for c in kindap_cells
        if c.error is not None or c.accuracy != 1.0
    ]
    ok = not imperfect and elapsed < SWEEP_TIME_BUDGET_SECONDS
    _report(
        "1a",
        ok,
        f"alternating-projection solver accuracy 1.000 in all {len(kindap_cells)} "
        f"cells, sweep {elapsed:.1f}s < {SWEEP_TIME_BUDGET_SECONDS:.0f}s",
    )
    assert not imperfect, f"imperfect cells: {imperfect}"
    assert elapsed < SWEEP_TIME_BUDGET_SECONDS


def test_criterion_1_km10_mean_below_at_k50(sweep):
    # At desk scale this holds for rho=0.66 but not rho=0.33: with only 50
    # clusters the 0.33-radius instances are easy enough that 10 k-means++
    # replications recover them reliably (the replication bottleneck shows up
    # from k~100; see the decisions ledger). Asserted as specified anyway.
    cells, _ = sweep
    failures = []
    for rho in SWEEP_RHO:
        km = [
            c.accuracy
            for c in cells
            if c.method == "kmeans" and c.k == 50 and c.rho == rho
        ]
        kindap = [
            c.accuracy
            for c in cells
            if c.method == "kindap" and c.k == 50 and c.rho == rho
        ]
        if not float(np.mean(km)) < float(np.mean(kindap)):
            failures.append((rho, float(np.mean(km))))
    _report(
        "1b",
        not failures,
        "KM10 mean accuracy at k=50 strictly below the deterministic solver's "
        f"in every rho (violations: {failures or 'none'})",
    )
    assert not failures, (
        f"KM10 mean accuracy at k=50 not strictly below 1.0 for rho in {failures}"
    )


def test_criterion_2_warm_start_dominates_km100():
    worst_margin = -np.inf
    for seed in SWEEP_SEEDS:
        data = generate(SynthSpec(k=50, rho=0.66, per_cluster=40, seed=seed))
        warm, _ = run_method(
            "kindap+l", data.embedded, KindapParams(), KmeansParams(replications=1, seed=seed)
        )
        km100 = kmeans_solve(
            data.embedded.matrix, 50, KmeansParams(replications=100, seed=seed)
        )
        margin = warm.kmeans_objective - km100.kmeans_objective
        worst_margin = max(worst_margin, margin)
        assert margin <= 1e-9, f"seed {seed}: warm start loses by {margin:.3e}"
    _report(
        "2",
        True,
        f"warm-started Lloyd <= best of 100 k-means++ replications on all "
        f"seeds (worst margin {worst_margin:.3e})",
    )


def test_criterion_3_determinism():
    data = generate(SynthSpec(k=10, rho=0.66, per_cluster=40, seed=1))
    runs = [kindap_solve(data.embedded) for _ in range(20)]
    first = runs[0]
    for other in runs[1:]:
        assert np.array_equal(other.labels, first.labels)
        assert other.kind_objective == first.kind_objective
        assert other.trace.objective_history == first.trace.objective_history
        assert other.trace.inner_iters_per_outer == first.trace.inner_iters_per_outer
        assert other.trace.outer_objective_history == first.trace.outer_objective_history

    km_params = KmeansParams(replications=5, seed=11)
    km_runs = [kmeans_solve(data.embedded.matrix, 10, km_params) for _ in range(3)]
    for other in km_runs[1:]:
        assert np.array_equal(other.labels, km_runs[0].labels)
        assert other.trace.replication_objectives == km_runs[0].trace.replication_objectives

    sr_params = SrParams(replications=5, seed=12)
    sr_runs = [sr_solve(data.embedded, sr_params) for _ in range(3)]
    for other in sr_runs[1:]:
        assert np.array_equal(other.labels, sr_runs[0].labels)
        assert other.trace.replication_objectives == sr_runs[0].trace.replication_objectives

    _report("3", True, "20 solver reruns bit-identical; seeded baselines reproducible")


def test_criterion_4_distance_metric_properties():
    # Instances with n = k make every subspace all of R^k, so the exact
    # distances are 0 and the square root turns machine roundoff into ~1e-8.
    # The 1e-9 check therefore runs on the algebraically equivalent squared
    # forms (which carry full precision at every scale); the literal unsquared
    # inequalities are asserted as well whenever the distances are above the
    # floating-point floor.
    rng = np.random.default_rng(2024)
    worst_triangle = -np.inf
    worst_chain = -np.inf
    worst_identity = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(k, 101))
        v1 = random_orthonormal(n, k, rng)
        v2 = random_orthonormal(n, k, rng)
        v3 = random_orthonormal(n, k, rng)
        d12 = subspace_distance(v1, v2)
        d23 = subspace_distance(v2, v3)
        d13 = subspace_distance(v1, v3)
        assert d13**2 <= (d12 + d23) ** 2 + 1e-9
        if min(d12, d23, d13) > 1e-6:
            worst_triangle = max(worst_triangle, d13 - d12 - d23)
            assert d13 <= d12 + d23 + 1e-9

        pd = projection_distance(v1, v2)
        assert 0.5 * pd**2 <= d12**2 + 1e-9
        assert d12**2 <= pd**2 + 1e-9
        if pd > 1e-6:
            worst_chain = max(worst_chain, np.sqrt(2) / 2 * pd - d12, d12 - pd)
            assert np.sqrt(2) / 2 * pd <= d12 + 1e-9
            assert d12 <= pd + 1e-9

        nuclear = float(np.linalg.svd(v1.T @ v2, compute_uv=False).sum())
        gap = abs(d12**2 - (2 * k - 2 * nuclear))
        worst_identity = max(worst_identity, gap)
        assert gap <= 1e-9
    _report(
        "4",
        True,
        "triangle inequality, distance chain, and nuclear-norm identity on 500 "
        f"random instances (worst slacks {worst_triangle:.1e}, {worst_chain:.1e}, "
        f"{worst_identity:.1e})",
    )


def test_criterion_5_procrustes_certificates():
    rng = np.random.default_rng(4049)
    worst = np.inf
    for i in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 1, 13))
        basis = validate_embedding(random_orthonormal(n, k, rng))
        if i % 2 == 0:
            target = rng.uniform(0.0, 1.0, size=(n, k))
        else:
            target = rng.standard_normal((n, k))
        rotation, _ = procrustes_rotation(basis.matrix.T @ target)
        closed = float(np.linalg.norm(basis.matrix @ rotation - target))
        sampled = sampled_rotation_min(basis.matrix, target, 10_000, rng)
        worst = min(worst, sampled - closed)
        assert closed <= sampled + 1e-9

    u = rng.standard_normal((30, 4)) * 3.0
    clamped = np.clip(u, 0.0, 1.0)
    for i in range(30):
        for j in range(4):
            assert clamped[i, j] == min(max(u[i, j], 0.0), 1.0)
    _report(
        "5",
        True,
        "closed-form rotation never beaten by 10^4 sampled rotations on 100 "
        f"instances (smallest sampled-closed margin {worst:.3e}); box projection "
        "matches the scalar clamp exactly",
    )


def test_criterion_6_monotone_traces(sweep):
    cells, _ = sweep
    checked = 0
    for cell in cells:
        assert cell.error is None, f"cell failed: {cell}"
        trace = cell.trace
        if cell.method == "kindap":
            offset = 0
            for count in trace.inner_iters_per_outer:
                phase = np.asarray(trace.objective_history[offset : offset + count])
                assert np.all(np.diff(phase) <= 1e-12), f"inner increase in {cell}"
                offset += count
                checked += 1
        else:
            for history in trace.replication_histories:
                assert np.all(np.diff(np.asarray(history)) <= 1e-12), (
                    f"objective increase in {cell}"
                )
                checked += 1
    _report("6", True, f"all {checked} recorded objective traces nonincreasing")


def test_criterion_7_small_instance_global_optimality():
    rng = np.random.default_rng(77)
    for i in range(50):
        k = 2 + (i % 2)
        per = int(rng.integers(2, 10 // k + 1))
        rho = float(rng.uniform(0.1, 0.8))
        data = generate(
            SynthSpec(k=k, per_cluster=per, rho=rho, ambient_dim=12, seed=500 + i)
        )
        result = kindap_solve(data.embedded)
        oracle_labels, oracle_value = exhaustive_best(data.embedded.matrix, k, "kind")
        assert result.kind_objective == pytest.approx(oracle_value, abs=1e-9), (
            f"instance {i}: solver {result.kind_objective} vs oracle {oracle_value}"
        )
        assert accuracy(result.labels, oracle_labels) == 1.0
    _report(
        "7",
        True,
        "solver objective equals the exhaustive optimum (within 1e-9) with "
        "matching partitions on 50 separable instances",
    )


def test_criterion_8_csv_pipeline_end_to_end(tmp_path):
    # Real-dataset tables are out of scope (data not shipped); the generic CSV
    # ingestion path is exercised end to end instead.
    rng = np.random.default_rng(8)
    centers = np.array(
        [[0.0, 0.0, 0.0, 0.0], [12.0, 0.0, 0.0, 0.0], [0.0, 12.0, 0.0, 0.0]]
    )
    data = np.vstack([c + rng.normal(0.0, 0.3, size=(15, 4)) for c in centers])
    truth = np.repeat(np.arange(3), 15)
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, data)
    emb_path = tmp_path / "emb.csv"
    assert main(
        ["embed", str(raw_path), "--k", "3", "--knn", "5", "--out", str(emb_path), "--quiet"]
    ) == 0
    result_path = tmp_path / "result.json"
    assert main(
        ["cluster", str(emb_path), "--method", "kindap", "--out", str(result_path), "--quiet"]
    ) == 0
    payload = json.loads(result_path.read_text())
    score = accuracy(payload["labels"], truth)
    _report("8", score == 1.0, f"embed+cluster CSV pipeline accuracy {score:.3f}")
    assert score == 1.0


def test_criterion_9_soft_indicator_direction():
    means = {}
    for rho in (0.33, 0.99):
        data = generate(SynthSpec(k=10, rho=rho, per_cluster=40, seed=1))
        result = kindap_solve(data.embedded)
        values = soft_indicator(result.relaxed).s
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)
        means[rho] = float(values.mean())
    ok = means[0.33] > means[0.99]
    _report(
        "9",
        ok,
        f"mean confidence {means[0.33]:.4f} at rho=0.33 > {means[0.99]:.4f} at rho=0.99",
    )
    assert ok
