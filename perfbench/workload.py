"""One benchmark workload in one process: set-up, timed passes, checks, metrics.

Started by ``perfbench/run.py``, which pins the BLAS thread count and puts
``src`` on the import path. Prints two lines: a report (environment, every
metric with its unit and samples, label digests, check results) and, last,
the result object ``{"correct", "attempted", "failed", "metrics"}`` holding
the metrics that ``BENCHMARK.json`` names. ``perfbench/NOTES.md`` says why
each workload exists and what its metrics should show.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # import time is part of set-up

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from kindicators import baselines, core, embedding, evaluation, kindap, projections
from kindicators.baselines import KmeansParams, SrParams, kmeans_solve, lloyd_solve, sr_solve
from kindicators.cli import (
    read_labels_csv,
    read_matrix_csv,
    result_payload,
    validate_result_payload,
    write_json,
    write_labels_csv,
    write_matrix_csv,
)
from kindicators.embedding import knn_graph, spectral_embed
from kindicators.evaluation import accuracy, kind_objective, kmeans_objective, soft_indicator
from kindicators.kindap import KindapParams, kindap_solve, warm_start_centers
from kindicators.synthgen import SynthSpec, generate

from run import THREAD_VARIABLES
from tracer import Tracer, rebound

IMPORT_S = time.perf_counter() - _STARTED

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # labels are compared across passes, so every run makes at least two
SETUP_REPEATS = 3
REPLICATIONS = 10
KNN = 10
# Criterion 6 of the acceptance suite: a recorded objective may rise by at most this.
MONOTONE_SLACK = 1e-12
# Reported objectives must match their recomputation to this relative tolerance.
OBJECTIVE_RTOL = 1e-9

# ---------------------------------------------------------------------------
# Workloads
#
# Every dataset comes from generate(SynthSpec(...)) with the generator's
# default seed. The workload seed permutes the rows (the features in
# raw_pipeline) and seeds the baselines: it changes the inputs but not how
# hard they are. KindAP's iteration count is a property of the point cloud
# (on k=100 it ranges from 77 to 300 inner iterations across generator
# seeds), and the benchmark measures code speed, not the luck of the draw.

WORKLOAD_SPECS = {
    "large_n": {
        "full": [SynthSpec(k=50, per_cluster=2000, rho=0.66, ambient_dim=300)],
        "tiny": [SynthSpec(k=5, per_cluster=40, rho=0.66)],
    },
    "many_k": {
        "full": [SynthSpec(k=100, per_cluster=40, rho=rho) for rho in (0.33, 0.66)],
        "tiny": [SynthSpec(k=8, per_cluster=10, rho=rho) for rho in (0.33, 0.66)],
    },
    "raw_pipeline": {
        "full": [SynthSpec(k=20, per_cluster=100, rho=0.66)],
        "tiny": [SynthSpec(k=4, per_cluster=25, rho=0.66)],
    },
}


@dataclass
class Dataset:
    name: str
    spec: SynthSpec
    embedded: core.EmbeddedData
    truth: np.ndarray
    km_seed: int
    sr_seed: int
    raw_csv: Path | None = None
    truth_csv: Path | None = None
    result_json: Path | None = None
    csv_bytes: int = 0


@dataclass
class PassOutput:
    results: dict = field(default_factory=dict)  # (dataset, method) -> ClusterResult
    accuracy: dict = field(default_factory=dict)  # (dataset, method) -> float
    bases: dict = field(default_factory=dict)  # dataset -> EmbeddedData the solvers saw
    graphs: dict = field(default_factory=dict)  # dataset -> SimilarityGraph


def prepare(spec: SynthSpec, seed: int, index: int, workdir: Path, tracer: Tracer, csv: bool):
    with tracer.span("synthgen.generate"):
        data = generate(spec)
    rng = np.random.default_rng([seed, index])
    km_seed, sr_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
    if csv:
        # Rows keep the generator's order: it picks the basis spectral_embed
        # returns inside the k-fold eigenvalue 0, and with it KindAP's start
        # (38 to 46 inner iterations across row orders). Permuting features
        # changes the file but no distance, so the binary kNN graph and
        # everything after it stay exactly as they were.
        rows = np.arange(data.truth.size)
        raw = data.raw[:, rng.permutation(data.raw.shape[1])]
    else:
        rows = rng.permutation(data.truth.size)
        raw = None
    ds = Dataset(
        name=f"k{spec.k}_rho{spec.rho}",
        spec=spec,
        embedded=core.EmbeddedData(data.embedded.matrix[rows]),
        truth=data.truth[rows],
        km_seed=km_seed,
        sr_seed=sr_seed,
    )
    if csv:
        ds.raw_csv = workdir / f"{ds.name}_raw.csv"
        ds.truth_csv = workdir / f"{ds.name}_truth.csv"
        ds.result_json = workdir / f"{ds.name}_result.json"
        with tracer.span("cli.write_matrix_csv"):
            write_matrix_csv(ds.raw_csv, raw)
        with tracer.span("cli.write_labels_csv"):
            write_labels_csv(ds.truth_csv, ds.truth)
        ds.csv_bytes = ds.raw_csv.stat().st_size
    return ds


def large_n_pass(tracer: Tracer, datasets, out: PassOutput) -> None:
    """KindAP, its confidence score, then the warm-started Lloyd polish."""
    for ds in datasets:
        basis = ds.embedded
        with tracer.span("kindap.kindap_solve", alloc=True):
            result = kindap_solve(basis)
        with tracer.span("evaluation.soft_indicator"):
            soft_indicator(result.relaxed)
        with tracer.span("kindap.warm_start_centers"):
            centers = warm_start_centers(basis, result)
        with tracer.span("baselines.lloyd_solve"):
            polished = lloyd_solve(basis.matrix, ds.spec.k, centers, KmeansParams(replications=1))
        with tracer.span("evaluation.accuracy"):
            out.accuracy[ds.name, "kindap"] = accuracy(result.labels, ds.truth)
            out.accuracy[ds.name, "kmeans"] = accuracy(polished.labels, ds.truth)
        out.results[ds.name, "kindap"] = result
        out.results[ds.name, "kmeans"] = polished
        out.bases[ds.name] = basis


def many_k_pass(tracer: Tracer, datasets, out: PassOutput) -> None:
    """KindAP against the replicated baselines KM10 and SR10."""
    for ds in datasets:
        basis = ds.embedded
        with tracer.span("kindap.kindap_solve", alloc=True):
            result = kindap_solve(basis)
        with tracer.span("baselines.kmeans_solve"):
            km = kmeans_solve(
                basis.matrix, ds.spec.k, KmeansParams(replications=REPLICATIONS, seed=ds.km_seed)
            )
        with tracer.span("baselines.sr_solve"):
            sr = sr_solve(basis, SrParams(replications=REPLICATIONS, seed=ds.sr_seed))
        with tracer.span("evaluation.accuracy"):
            for method, res in (("kindap", result), ("kmeans", km), ("sr", sr)):
                out.accuracy[ds.name, method] = accuracy(res.labels, ds.truth)
        out.results[ds.name, "kindap"] = result
        out.results[ds.name, "kmeans"] = km
        out.results[ds.name, "sr"] = sr
        out.bases[ds.name] = basis


def raw_pipeline_pass(tracer: Tracer, datasets, out: PassOutput) -> None:
    """Raw CSV to scored result: parse, kNN graph, spectral embedding, KindAP, JSON."""
    for ds in datasets:
        with tracer.span("cli.read_matrix_csv"):
            raw = read_matrix_csv(ds.raw_csv)
        with tracer.span("embedding.knn_graph", alloc=True):
            graph = knn_graph(raw, KNN)
        with tracer.span("embedding.spectral_embed", alloc=True):
            basis = spectral_embed(graph, ds.spec.k)
        with tracer.span("kindap.kindap_solve", alloc=True) as solve:
            result = kindap_solve(basis)
        with tracer.span("evaluation.soft_indicator"):
            soft = soft_indicator(result.relaxed)
        with tracer.span("cli.write_result"):
            payload = result_payload(
                "kindap",
                result,
                seed=0,
                replications=1,
                orthonormalized=basis.orthonormalized,
                wall_time_seconds=solve.seconds,
                params=asdict(KindapParams()),
                soft_values=soft.s,
            )
            validate_result_payload(payload)
            write_json(ds.result_json, payload)
        with tracer.span("cli.read_labels_csv"):
            truth = read_labels_csv(ds.truth_csv)
        with tracer.span("evaluation.accuracy"):
            out.accuracy[ds.name, "kindap"] = accuracy(result.labels, truth)
        out.results[ds.name, "kindap"] = result
        out.bases[ds.name] = basis
        out.graphs[ds.name] = graph


PASSES = {"large_n": large_n_pass, "many_k": many_k_pass, "raw_pipeline": raw_pipeline_pass}

# Library functions and validating constructors traced in traced passes, by
# the module attribute their callers look up. The benchmark's own calls go
# to the functions imported above, so a step span never wraps itself.
VALIDATING_TYPES = (
    core.EmbeddedData,
    core.IndicatorMatrix,
    core.RelaxedAssignment,
    core.BinaryIndicator,
    core.ClusterResult,
    projections.RotatedBasis,
    embedding.SimilarityGraph,
    evaluation.SoftIndicator,
)
TRACED_CALLS = [
    (kindap, "inner_solve", "kindap.inner_solve"),
    (kindap, "round_to_indicator", "kindap.round_to_indicator"),
    (kindap, "repair_empty_columns", "kindap.repair_empty_columns"),
    (baselines, "repair_empty_columns", "kindap.repair_empty_columns"),
    (kindap, "procrustes_rotation", "projections.procrustes_rotation"),
    (baselines, "procrustes_rotation", "projections.procrustes_rotation"),
    (kindap, "make_indicator", "core.make_indicator"),
    (baselines, "make_indicator", "core.make_indicator"),
    (evaluation, "make_indicator", "core.make_indicator"),
    (kindap, "kind_objective", "evaluation.kind_objective"),
    (baselines, "kind_objective", "evaluation.kind_objective"),
    (kindap, "kmeans_objective", "evaluation.kmeans_objective"),
    (baselines, "kmeans_objective", "evaluation.kmeans_objective"),
    (baselines, "kmeans_pp_init", "baselines.kmeans_pp_init"),
    (baselines, "lloyd_solve", "baselines.lloyd_solve"),
    (embedding, "validate_embedding", "core.validate_embedding"),
] + [(cls, "__post_init__", "core.validate") for cls in VALIDATING_TYPES]


# ---------------------------------------------------------------------------
# Metrics

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "kindap_s": "s",
    "kmeans_s": "s",
    "sr_s": "s",
    "embed_s": "s",
    "peak_rss_mb": "MB",
    "kindap_accuracy": "fraction",
    "kmeans_accuracy": "fraction",
    "sr_accuracy": "fraction",
    "kindap_objective": "dimensionless",
    "error_rate": "fraction",
}

LAYER_UNITS = {
    "synthgen.generate_s": "s",
    "cli.read_matrix_csv_s": "s",
    "cli.read_matrix_csv_mb_per_s": "MB/s",
    "cli.write_matrix_csv_s": "s",
    "cli.write_result_s": "s",
    "cli.read_labels_csv_s": "s",
    "embedding.knn_graph_s": "s",
    "embedding.knn_peak_alloc_mb": "MB",
    "embedding.spectral_embed_self_s": "s",
    "embedding.spectral_embed_peak_alloc_mb": "MB",
    "embedding.graph_edges": "count",
    "core.validate_embedding_s": "s",
    "core.validate_s": "s",
    "core.validate_calls": "count",
    "core.make_indicator_s": "s",
    "projections.procrustes_s": "s",
    "projections.procrustes_calls": "count",
    "projections.procrustes_us_per_call": "us",
    "kindap.inner_self_s": "s",
    "kindap.inner_iters": "count",
    "kindap.outer_iters": "count",
    "kindap.ns_per_object_iter": "ns",
    "kindap.round_s": "s",
    "kindap.repair_s": "s",
    "kindap.solve_peak_alloc_mb": "MB",
    "kindap.useful_outer_ratio": "fraction",
    "kindap.warm_start_centers_s": "s",
    "baselines.kmeans_pp_init_s": "s",
    "baselines.lloyd_self_s": "s",
    "baselines.lloyd_iters": "count",
    "baselines.lloyd_ms_per_iter": "ms",
    "baselines.sr_self_s": "s",
    "baselines.sr_iters": "count",
    "baselines.kmeans_at_best_ratio": "fraction",
    "baselines.sr_at_best_ratio": "fraction",
    "evaluation.kind_objective_s": "s",
    "evaluation.kmeans_objective_s": "s",
    "evaluation.accuracy_s": "s",
    "evaluation.soft_indicator_s": "s",
    "trace.overhead_frac": "fraction",
}

# Per-layer metrics read straight off the spans of a traced pass.
INCLUSIVE_S = {
    "cli.read_matrix_csv_s": "cli.read_matrix_csv",
    "cli.write_result_s": "cli.write_result",
    "cli.read_labels_csv_s": "cli.read_labels_csv",
    "embedding.knn_graph_s": "embedding.knn_graph",
    "core.validate_embedding_s": "core.validate_embedding",
    "core.validate_s": "core.validate",
    "core.make_indicator_s": "core.make_indicator",
    "projections.procrustes_s": "projections.procrustes_rotation",
    "kindap.round_s": "kindap.round_to_indicator",
    "kindap.repair_s": "kindap.repair_empty_columns",
    "kindap.warm_start_centers_s": "kindap.warm_start_centers",
    "baselines.kmeans_pp_init_s": "baselines.kmeans_pp_init",
    "evaluation.kind_objective_s": "evaluation.kind_objective",
    "evaluation.kmeans_objective_s": "evaluation.kmeans_objective",
    "evaluation.accuracy_s": "evaluation.accuracy",
    "evaluation.soft_indicator_s": "evaluation.soft_indicator",
}
SELF_S = {
    "embedding.spectral_embed_self_s": "embedding.spectral_embed",
    "kindap.inner_self_s": "kindap.inner_solve",
    "baselines.lloyd_self_s": "baselines.lloyd_solve",
    "baselines.sr_self_s": "baselines.sr_solve",
}
CALLS = {
    "core.validate_calls": "core.validate",
    "projections.procrustes_calls": "projections.procrustes_rotation",
}
SETUP_SPANS = {
    "synthgen.generate": "synthgen.generate_s",
    "cli.write_matrix_csv": "cli.write_matrix_csv_s",
}
PEAK_MB = {
    "embedding.knn_peak_alloc_mb": "embedding.knn_graph",
    "embedding.spectral_embed_peak_alloc_mb": "embedding.spectral_embed",
    "kindap.solve_peak_alloc_mb": "kindap.kindap_solve",
}


def _methods(out: PassOutput, method: str):
    return [(ds, r) for (ds, m), r in out.results.items() if m == method]


def _lloyd_histories(result) -> list:
    return result.trace.replication_histories or [result.trace.objective_history]


def _at_best_ratio(objectives) -> float:
    best = min(objectives)
    reached = sum(v <= best + OBJECTIVE_RTOL * max(abs(best), 1.0) for v in objectives)
    return reached / len(objectives)


def pass_e2e(tracer: Tracer, out: PassOutput) -> dict:
    steps = tracer.totals(children_of=0)

    def step_s(*names):
        found = [steps[n].seconds for n in names if n in steps]
        return sum(found) if found else None

    acc = {
        m: [v for (_, meth), v in out.accuracy.items() if meth == m]
        for m in ("kindap", "kmeans", "sr")
    }
    values = {
        "wall_s": tracer.spans[0].seconds,
        "kindap_s": step_s("kindap.kindap_solve"),
        "kmeans_s": step_s(
            "baselines.kmeans_solve", "kindap.warm_start_centers", "baselines.lloyd_solve"
        ),
        "sr_s": step_s("baselines.sr_solve"),
        "embed_s": step_s("embedding.knn_graph", "embedding.spectral_embed"),
        "kindap_accuracy": min(acc["kindap"]),
        "kmeans_accuracy": float(np.mean(acc["kmeans"])) if acc["kmeans"] else None,
        "sr_accuracy": float(np.mean(acc["sr"])) if acc["sr"] else None,
        "kindap_objective": sum(r.kind_objective for _, r in _methods(out, "kindap")),
    }
    return {k: v for k, v in values.items() if v is not None}


def pass_layers(tracer: Tracer, out: PassOutput, datasets, edges: dict) -> dict:
    t = tracer.totals()
    values = {}
    for metric, name in INCLUSIVE_S.items():
        if name in t:
            values[metric] = t[name].seconds
    for metric, name in SELF_S.items():
        if name in t:
            values[metric] = t[name].self_seconds
    for metric, name in CALLS.items():
        if name in t:
            values[metric] = t[name].calls
    for metric, name in PEAK_MB.items():
        if name in t:
            values[metric] = t[name].peak_bytes / 1e6
    if "cli.read_matrix_csv" in t:
        mb = sum(ds.csv_bytes for ds in datasets) / 1e6
        values["cli.read_matrix_csv_mb_per_s"] = mb / t["cli.read_matrix_csv"].seconds
    if "projections.procrustes_rotation" in t:
        p = t["projections.procrustes_rotation"]
        values["projections.procrustes_us_per_call"] = 1e6 * p.seconds / p.calls
    kindap_runs = _methods(out, "kindap")
    inner_iters = sum(sum(r.trace.inner_iters_per_outer) for _, r in kindap_runs)
    outer_iters = sum(r.trace.outer_iters for _, r in kindap_runs)
    values["kindap.inner_iters"] = inner_iters
    values["kindap.outer_iters"] = outer_iters
    object_iters = sum(
        sum(r.trace.inner_iters_per_outer) * out.bases[ds].n for ds, r in kindap_runs
    )
    values["kindap.ns_per_object_iter"] = 1e9 * t["kindap.inner_solve"].seconds / object_iters
    useful = 0
    for _, r in kindap_runs:
        best = np.inf
        for f in r.trace.outer_objective_history:
            useful += f < best
            best = min(best, f)
    values["kindap.useful_outer_ratio"] = useful / outer_iters
    km_runs = _methods(out, "kmeans")
    if km_runs:
        values["baselines.lloyd_iters"] = sum(
            len(h) for _, r in km_runs for h in _lloyd_histories(r)
        )
        values["baselines.lloyd_ms_per_iter"] = (
            1e3 * t["baselines.lloyd_solve"].seconds / values["baselines.lloyd_iters"]
        )
        replicated = [r for _, r in km_runs if r.trace.replication_objectives]
        if replicated:
            values["baselines.kmeans_at_best_ratio"] = float(
                np.mean([_at_best_ratio(r.trace.replication_objectives) for r in replicated])
            )
    sr_runs = _methods(out, "sr")
    if sr_runs:
        values["baselines.sr_iters"] = sum(
            len(h) for _, r in sr_runs for h in r.trace.replication_histories
        )
        values["baselines.sr_at_best_ratio"] = float(
            np.mean([_at_best_ratio(r.trace.replication_objectives) for _, r in sr_runs])
        )
    if edges:
        values["embedding.graph_edges"] = sum(edges.values())
    return values


def _edges(graph) -> int:
    return int(np.count_nonzero(graph.weights)) // 2


# ---------------------------------------------------------------------------
# Correctness checks


class Checks:
    """Counts operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _close(a, b) -> bool:
    return abs(a - b) <= OBJECTIVE_RTOL * max(abs(b), 1.0)


def _monotone(history) -> bool:
    return bool(np.all(np.diff(np.asarray(history, dtype=float)) <= MONOTONE_SLACK))


def check_pass(checks: Checks, out: PassOutput, edges: dict, reference, index: int) -> None:
    for (ds, method), result in out.results.items():
        where = f"pass {index} {ds}/{method}"
        basis = out.bases[ds]
        if method == "kindap":
            acc = out.accuracy[ds, method]
            checks.expect(acc == 1.0, f"{where}: accuracy {acc}")
        recomputed = kind_objective(basis, core.make_indicator(result.labels, basis.k))
        checks.expect(
            result.kind_objective is not None and _close(result.kind_objective, recomputed),
            f"{where}: kind_objective differs from its recomputation",
        )
        checks.expect(
            _close(result.kmeans_objective, kmeans_objective(basis, result.labels)),
            f"{where}: kmeans_objective differs from its recomputation",
        )
        trace = result.trace
        if method == "kindap":
            offset = 0
            for count in trace.inner_iters_per_outer:
                phase = trace.objective_history[offset : offset + count]
                checks.expect(_monotone(phase), f"{where}: inner gap increased")
                offset += count
        elif method == "kmeans":
            for history in _lloyd_histories(result):
                checks.expect(_monotone(history), f"{where}: Lloyd objective increased")
        else:
            for history in trace.replication_histories:
                checks.expect(_monotone(history), f"{where}: SR objective increased")
        if reference is not None:
            checks.expect(
                np.array_equal(result.labels, reference.labels[ds, method]),
                f"{where}: labels differ from the first pass",
            )
    if reference is not None:
        for ds, count in edges.items():
            checks.expect(count == reference.edges[ds], f"pass {index} {ds}: graph edges differ")


def label_digest(labels) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype="<i8").tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Run


@dataclass
class Reference:
    """What every later pass of a run must reproduce: the first pass's labels and edge counts."""

    labels: dict  # (dataset, method) -> labels
    edges: dict  # dataset -> edge count


def run_pass(workload: str, datasets, traced: bool):
    """One pass; returns its tracer, its outputs, and the traceback if it raised."""
    tracer = Tracer(track_alloc=traced)
    out = PassOutput()
    error = None
    with rebound(tracer, TRACED_CALLS if traced else []):
        root = tracer.begin("pass")
        try:
            PASSES[workload](tracer, datasets, out)
        except Exception:
            error = traceback.format_exc()
        finally:
            tracer.end(root)
    return tracer, out, error


def set_up(workload: str, scale: str, seed: int, workdir: Path):
    tracer = Tracer()
    specs = WORKLOAD_SPECS[workload][scale]
    started = time.perf_counter()
    datasets = [
        prepare(spec, seed, i, workdir, tracer, csv=workload == "raw_pipeline")
        for i, spec in enumerate(specs)
    ]
    return datasets, time.perf_counter() - started, tracer


def median_metric(samples: list, unit: str) -> dict:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "samples": len(samples),
        "values": samples,
    }


def environment(seed: int) -> dict:
    numpy_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {
            "name": numpy_blas.get("name"),
            "version": numpy_blas.get("version"),
            "config": numpy_blas.get("openblas configuration"),
        },
        "scipy_blas_version": scipy_blas.get("version"),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload_seed": seed,
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """Digest of the package sources, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def gated_names() -> tuple[list[str], list[str]]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [m["name"] for m in config["end_to_end"]],
        [m["name"] for m in config["per_layer"]],
    )


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str, workdir: Path) -> dict:
    checks = Checks()
    errors: list[str] = []

    started = time.perf_counter()
    warm_dir = workdir / "warmup"
    warm_dir.mkdir()
    warm, _, _ = set_up(workload, "tiny", seed, warm_dir)
    run_pass(workload, warm, traced=False)
    warmup_s = time.perf_counter() - started

    input_s, setup_tracers = [], []
    for _ in range(SETUP_REPEATS):
        datasets, elapsed, tracer = set_up(workload, scale, seed, workdir)
        input_s.append(elapsed)
        setup_tracers.append(tracer)

    # Each pass is reduced to its metrics as soon as it ends, so no pass
    # keeps another's arrays alive and peak memory does not grow with the
    # number of passes.
    e2e_samples: dict[str, list] = {}
    layer_samples: dict[str, list] = {}
    self_time: list[dict] = []
    reference: Reference | None = None
    passes = failed_passes = 0
    measuring = time.perf_counter()
    while True:
        traced = trace and passes % 2 == 1
        tracer, out, error = run_pass(workload, datasets, traced)
        checks.attempted += sum(t.calls for t in tracer.totals(children_of=0).values())
        if error:
            checks.failures.append(f"pass {passes} raised")
            errors.append(error)
            failed_passes += 1
        else:
            edges = {ds: _edges(g) for ds, g in out.graphs.items()}
            try:
                check_pass(checks, out, edges, reference, passes)
            except Exception:
                checks.failures.append(f"pass {passes}: a check raised")
                errors.append(traceback.format_exc())
            reference = reference or Reference(
                {key: r.labels for key, r in out.results.items()}, edges
            )
            if traced:
                for name, value in pass_layers(tracer, out, datasets, edges).items():
                    layer_samples.setdefault(name, []).append(value)
                spans = tracer.totals()
                layers = sum(t.self_seconds for span, t in spans.items() if span != "pass")
                self_time.append({"wall_s": tracer.spans[0].seconds, "layer_self_s": layers})
            else:
                for name, value in pass_e2e(tracer, out).items():
                    e2e_samples.setdefault(name, []).append(value)
        del tracer, out
        passes += 1
        enough = len(e2e_samples.get("wall_s", [])) >= MIN_PASSES and (
            not trace or len(self_time) >= MIN_PASSES
        )
        if time.perf_counter() - measuring >= seconds and (enough or passes >= 4 * MIN_PASSES):
            break

    if not e2e_samples or (trace and not self_time):
        raise RuntimeError("no pass completed:\n" + "\n".join(errors))

    metrics = {name: median_metric(v, E2E_UNITS[name]) for name, v in e2e_samples.items()}
    setup_s = IMPORT_S + warmup_s + statistics.median(input_s)
    metrics["setup_s"] = dict(median_metric(input_s, "s"), value=setup_s)
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "unit": "MB",
    }
    metrics["error_rate"] = {"value": len(checks.failures) / checks.attempted, "unit": "fraction"}

    per_layer = {}
    if trace:
        setup_totals = [t.totals() for t in setup_tracers]
        for span, metric in SETUP_SPANS.items():
            found = [t[span].seconds for t in setup_totals if span in t]
            if found:
                layer_samples[metric] = found
        traced_wall = statistics.median(s["wall_s"] for s in self_time)
        layer_samples["trace.overhead_frac"] = [traced_wall / metrics["wall_s"]["value"] - 1.0]
        per_layer = {n: median_metric(v, LAYER_UNITS[n]) for n, v in layer_samples.items()}

    report = {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "datasets": [
            {
                "name": ds.name,
                "n": ds.spec.k * ds.spec.per_cluster,
                "k": ds.spec.k,
                "rho": ds.spec.rho,
                "ambient_dim": ds.spec.ambient_dim,
                "generator_seed": ds.spec.seed,
                "kmeans_seed": ds.km_seed,
                "sr_seed": ds.sr_seed,
            }
            for ds in datasets
        ],
        "passes": {
            "untraced": len(e2e_samples["wall_s"]),
            "traced": len(self_time),
            "failed": failed_passes,
        },
        "set_up": {"import_s": IMPORT_S, "warmup_s": warmup_s, "input_s": input_s},
        "metrics": metrics,
        "per_layer": per_layer,
        "self_time": self_time,
        "label_digests": {
            f"{ds}/{method}": label_digest(labels)
            for (ds, method), labels in reference.labels.items()
        },
        "checks": {
            "attempted": checks.attempted,
            "failed": len(checks.failures),
            "failures": checks.failures[:20],
            "errors": [e[-2000:] for e in errors[:3]],
        },
    }
    return report


def result_line(report: dict, names: list[str]) -> dict:
    source = report["per_layer"] if report["trace"] else report["metrics"]
    missing = [n for n in names if n not in source]
    if missing:
        raise RuntimeError(f"workload {report['workload']} did not measure {missing}")
    failed = report["checks"]["failed"]
    return {
        "correct": failed == 0,
        "attempted": report["checks"]["attempted"],
        "failed": failed,
        "metrics": {n: {"value": source[n]["value"], "unit": source[n]["unit"]} for n in names},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the benchmark's own smoke test"
    )
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    # Turn a termination request into an exit, so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    end_to_end, per_layer = gated_names()
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        scale = "tiny" if args.tiny else "full"
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), scale, workdir)
        line = result_line(report, per_layer if args.trace else end_to_end)
    finally:
        shutil.rmtree(workdir)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
