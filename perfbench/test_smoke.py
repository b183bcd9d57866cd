"""Smoke test of the benchmark itself, at a tiny input size.

Runs every workload, untraced and traced, through the real entry point and
checks the output: every metric is present with its unit, the result line
holds exactly the metrics BENCHMARK.json names, and each traced pass's
per-layer self times sum to no more than its wall time. Each run takes about
a second.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())

ALL = {
    "setup_s",
    "wall_s",
    "kindap_s",
    "peak_rss_mb",
    "kindap_accuracy",
    "kindap_objective",
    "error_rate",
}
END_TO_END = {
    "large_n": ALL | {"kmeans_s", "kmeans_accuracy"},
    "many_k": ALL | {"kmeans_s", "sr_s", "kmeans_accuracy", "sr_accuracy"},
    "raw_pipeline": ALL | {"embed_s"},
}
KINDAP_LAYERS = {
    "synthgen.generate_s",
    "core.validate_s",
    "core.validate_calls",
    "core.make_indicator_s",
    "projections.procrustes_s",
    "projections.procrustes_calls",
    "projections.procrustes_us_per_call",
    "kindap.inner_self_s",
    "kindap.inner_iters",
    "kindap.outer_iters",
    "kindap.ns_per_object_iter",
    "kindap.round_s",
    "kindap.repair_s",
    "kindap.solve_peak_alloc_mb",
    "kindap.useful_outer_ratio",
    "evaluation.kind_objective_s",
    "evaluation.kmeans_objective_s",
    "evaluation.accuracy_s",
    "trace.overhead_frac",
}
PER_LAYER = {
    "large_n": KINDAP_LAYERS
    | {
        "kindap.warm_start_centers_s",
        "baselines.lloyd_self_s",
        "baselines.lloyd_iters",
        "baselines.lloyd_ms_per_iter",
        "evaluation.soft_indicator_s",
    },
    "many_k": KINDAP_LAYERS
    | {
        "baselines.kmeans_pp_init_s",
        "baselines.lloyd_self_s",
        "baselines.lloyd_iters",
        "baselines.lloyd_ms_per_iter",
        "baselines.sr_self_s",
        "baselines.sr_iters",
        "baselines.kmeans_at_best_ratio",
        "baselines.sr_at_best_ratio",
    },
    "raw_pipeline": KINDAP_LAYERS
    | {
        "cli.read_matrix_csv_s",
        "cli.read_matrix_csv_mb_per_s",
        "cli.write_matrix_csv_s",
        "cli.write_result_s",
        "cli.read_labels_csv_s",
        "embedding.knn_graph_s",
        "embedding.knn_peak_alloc_mb",
        "embedding.spectral_embed_self_s",
        "embedding.spectral_embed_peak_alloc_mb",
        "embedding.graph_edges",
        "core.validate_embedding_s",
        "evaluation.soft_indicator_s",
    },
}
# Unit by name suffix, first match wins.
SUFFIX_UNITS = (
    ("mb_per_s", "MB/s"),
    ("us_per_call", "us"),
    ("ns_per_object_iter", "ns"),
    ("ms_per_iter", "ms"),
    ("_s", "s"),
    ("_mb", "MB"),
    ("_calls", "count"),
    ("_iters", "count"),
    ("_edges", "count"),
    ("accuracy", "fraction"),
    ("ratio", "fraction"),
    ("frac", "fraction"),
    ("rate", "fraction"),
    ("objective", "dimensionless"),
)


def expected_unit(name: str) -> str:
    return next(unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix))


def run_benchmark(workload: str, trace: int):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    elapsed = time.perf_counter() - started
    return json.loads(report_line)["report"], json.loads(result_line), elapsed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(END_TO_END))
def test_benchmark_reports_every_metric(workload, trace):
    report, result, elapsed = run_benchmark(workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    gated = CONFIG["per_layer" if trace else "end_to_end"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in gated}

    measured = report["per_layer"] if trace else report["metrics"]
    assert set(measured) == (PER_LAYER if trace else END_TO_END)[workload]
    for name, metric in measured.items():
        assert metric["unit"] == expected_unit(name), name
        assert isinstance(metric["value"], (int, float)), name
    assert report["metrics"]["kindap_accuracy"]["value"] == 1.0
    assert report["metrics"]["error_rate"]["value"] == 0.0
    assert report["label_digests"]

    if trace:
        assert len(report["self_time"]) >= 2
        for one_pass in report["self_time"]:
            assert 0 < one_pass["layer_self_s"] <= one_pass["wall_s"]
    assert elapsed < 30, f"tiny benchmark run took {elapsed:.1f} s"


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    """With no src/ beside it, the benchmark exits nonzero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
