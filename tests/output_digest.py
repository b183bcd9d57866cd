"""Digests of every output a change to the solvers or the CLI must keep.

Prints one JSON line per output, so the lines printed with two versions of
`src/` can be diffed to show that a change left its outputs unchanged:

- `solve`: the 12 `SynthSpec` cells (k 10, 50, 100; rho 0.33, 0.66; seeds
  0, 1) through `cli.run_method` for `kindap`, `kmeans`, `sr` and `kindap+l`
  (replications 3, seed 0). Per run: the labels' SHA-256, both objectives as
  `float.hex`, `inner_iters_per_outer`, `stop_reasons`, `outer_stop_reason`,
  `replication_index`, and the relaxed assignment's SHA-256 where there is
  one; for `kindap+l` the same for the KindAP stage it starts from.
- `front_end`: the `raw_pipeline` benchmark's raw data through
  `knn_graph(raw, 10)` and `spectral_embed(graph, 20)`: the edge count, the
  SHA-256s of the graph's CSR `indices` and `indptr`, of the `data` of
  `knn_graph(raw, 10, weight="gaussian")`, and of the embedding.
- `cluster`: the result JSON of `main(["cluster", ...])` for each method on
  the embedding of a `synth` run, one line per top-level key, with
  `wall_time_seconds` dropped.
- `file`: the SHA-256 of the bytes of that `synth` run's `raw.csv`,
  `truth.csv` and `embedded.csv`, of `embed` on its `raw.csv` with the
  default flags and with `--weight gaussian --row-normalize` (which takes
  `validate_embedding`'s QR path), and of the `eval --embedded` JSON of
  the `kindap` result.
- `bench`: each row of the `bench.json` of a tiny four-method sweep
  (`BENCH_SWEEP`), with `wall_time_seconds` dropped.
- `usage`: the exit code and stderr of `main` for each flag value in
  `REJECTED_FLAGS`, the values the parameter types must reject, so a diff
  lists every reworded message.
- `labels`: for each label-file text in `test_cli.LABEL_CASES`, the ids
  `cli.read_labels_csv` reads from it, or its error's class and message.
- `truncation`: `make_indicator`, `accuracy` and `write_labels_csv` given
  fractional labels, and those three and `ClusterResult` (`LABEL_CALLS`,
  `accuracy` on each side) given each input of `test_cli.BAD_LABEL_INPUTS`
  (together `LIBRARY_LABEL_CASES`): the labels, score or file text they
  give, or the error's class and message.
- `api`: one line with the sorted `kindicators.__all__`, the field names of
  `KindapParams`, `KmeansParams`, `SrParams` and `SynthSpec`, and each
  subcommand's flags from `cli.build_parser()`, so a change to the public
  surface shows as this one differing line.

It uses only names that older versions of the package also have, so it runs
unchanged on both sides of a change.

Usage: ``PYTHONPATH=src python tests/output_digest.py > digest.jsonl``, then
``diff`` two such files (about 6 s on 2 cores).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import kindicators
from kindicators import cli
from kindicators.baselines import KmeansParams, SrParams
from kindicators.core import ClusterResult, make_indicator
from kindicators.embedding import knn_graph, spectral_embed
from kindicators.evaluation import accuracy
from kindicators.kindap import KindapParams
from kindicators.synthgen import SynthSpec, generate
from test_cli import BAD_LABEL_INPUTS, LABEL_CASES

CELLS = [
    SynthSpec(k=k, rho=rho, seed=seed)
    for k in (10, 50, 100)
    for rho in (0.33, 0.66)
    for seed in (0, 1)
]
REPLICATIONS = 3
RAW_PIPELINE = SynthSpec(k=20, per_cluster=100, rho=0.66)
KNN = 10
# Flag values the CLI must reject, each after the command it goes to; every
# `cluster` line runs on the `synth` run's embedding.
REJECTED_FLAGS = [
    ["synth", "--k", "3", "--seed", "-1"],
    ["synth", "--k", "3", "--rho", "0"],
    ["cluster", "--method", "kindap", "--max-outer", "0"],
    ["cluster", "--method", "kindap", "--tol-inner", "-1"],
    ["cluster", "--method", "kmeans", "--max-iters", "0"],
    ["cluster", "--method", "kmeans", "--tol", "0"],
    *(["cluster", "--method", method, "--replications", "0"] for method in cli.METHODS),
    ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kmeans", "--replications", "0"],
    ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kmeans", "--per-cluster", "0"],
    ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kmeans", "--seeds", "-1"],
    ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", ","],
]
BENCH_SWEEP = ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", ",".join(cli.METHODS),
               "--replications", str(REPLICATIONS), "--seeds", "1", "--per-cluster", "10",
               "--ambient-dim", "12"]


def _write_labels(labels, path: Path) -> str:
    cli.write_labels_csv(path, labels)
    return path.read_text()


# Each library call that takes labels, as a template for its name and a
# function of the labels and the path a label file goes to.
LABEL_CALLS = {
    "make_indicator({}, 2).labels": lambda labels, path: make_indicator(labels, 2).labels.tolist(),
    "ClusterResult({}).labels": lambda labels, path: ClusterResult(labels, None, 0.0).labels.tolist(),
    "accuracy({}, [0, 1])": lambda labels, path: accuracy(labels, [0, 1]),
    "accuracy([0, 1], {})": lambda labels, path: accuracy([0, 1], labels),
    "write_labels_csv(path, {})": _write_labels,
}
# Library calls given fractional labels or a bad input, each named by its call.
LIBRARY_LABEL_CASES = {
    "make_indicator([0.5, 1.7], 2).labels": lambda path: make_indicator([0.5, 1.7], 2).labels.tolist(),
    "accuracy([0.9, 1.2, 1.9], [0, 1, 1])": lambda path: accuracy([0.9, 1.2, 1.9], [0, 1, 1]),
    "write_labels_csv(path, [1.7, 2.2])": functools.partial(_write_labels, [1.7, 2.2]),
    **{
        template.format(name): functools.partial(call, labels)
        for name, (labels, _) in BAD_LABEL_INPUTS.items()
        for template, call in LABEL_CALLS.items()
    },
}


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _hex(value) -> str | None:
    return None if value is None else float(value).hex()


def _digest(result) -> dict:
    trace = result.trace
    return {
        "labels": _sha(np.asarray(result.labels, dtype=np.int64)),
        "kind_objective": _hex(result.kind_objective),
        "kmeans_objective": _hex(result.kmeans_objective),
        "inner_iters_per_outer": list(trace.inner_iters_per_outer),
        "stop_reasons": list(trace.stop_reasons),
        "outer_stop_reason": trace.outer_stop_reason,
        "replication_index": trace.replication_index,
        "relaxed": None if result.relaxed is None else _sha(result.relaxed.matrix),
    }


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def solve_digests() -> None:
    for spec in CELLS:
        embedded = generate(spec).embedded
        for method in cli.METHODS:
            kindap_params, baseline_params = cli._method_params(method, REPLICATIONS, 0)
            # Older versions return (result, soft_values, stage_one).
            solved = cli.run_method(method, embedded, kindap_params, baseline_params)
            result, stage_one = solved[0], solved[-1]
            record = {"solve": method, "k": spec.k, "rho": spec.rho, "seed": spec.seed}
            record.update(_digest(result))
            if stage_one is not None:
                record["stage_one"] = _digest(stage_one)
            _emit(record)


def front_end_digest() -> None:
    raw = generate(RAW_PIPELINE).raw
    graph = knn_graph(raw, KNN)
    gaussian = knn_graph(raw, KNN, weight="gaussian")
    basis = spectral_embed(graph, RAW_PIPELINE.k)
    _emit({"front_end": "raw_pipeline", "edges": int(graph.matrix.nnz // 2),
           "indices": _sha(graph.matrix.indices), "indptr": _sha(graph.matrix.indptr),
           "gaussian_data": _sha(gaussian.matrix.data), "embedding": _sha(basis.matrix)})


def _emit_file(name: str, path: Path) -> None:
    _emit({"file": name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})


def cluster_and_file_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert cli.main(["synth", "--k", "5", "--out", str(tmp), "--quiet"]) == 0
        for name in ("raw.csv", "truth.csv", "embedded.csv"):
            _emit_file(f"synth {name}", tmp / name)
        for method in cli.METHODS:
            out = tmp / f"{method}.json"
            argv = ["cluster", str(tmp / "embedded.csv"), "--method", method,
                    "--replications", str(REPLICATIONS), "--out", str(out), "--quiet"]
            assert cli.main(argv) == 0
            payload = json.loads(out.read_text())
            payload.pop("wall_time_seconds")
            for key, value in sorted(payload.items()):
                _emit({"cluster": method, "key": key, "value": value})
        for flags in ([], ["--weight", "gaussian", "--row-normalize"]):
            out = tmp / "embed.csv"
            argv = ["embed", str(tmp / "raw.csv"), "--k", "5", *flags, "--out", str(out), "--quiet"]
            assert cli.main(argv) == 0
            _emit_file(" ".join(["embed", *flags]), out)
        out = tmp / "eval.json"
        argv = ["eval", "--pred", str(tmp / "kindap.json"), "--truth", str(tmp / "truth.csv"),
                "--embedded", str(tmp / "embedded.csv"), "--out", str(out), "--quiet"]
        assert cli.main(argv) == 0
        _emit_file("eval --embedded", out)
        assert cli.main([*BENCH_SWEEP, "--out", str(tmp / "bench"), "--quiet"]) == 0
        for row in json.loads((tmp / "bench" / "bench.json").read_text())["rows"]:
            row.pop("wall_time_seconds")
            _emit({"bench": row})
        for flags in REJECTED_FLAGS:
            command, *rest = flags
            argv = [command, *([str(tmp / "embedded.csv")] if command == "cluster" else []), *rest]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out", str(tmp / "rejected"), "--quiet"])
            _emit({"usage": " ".join(flags), "exit": code, "stderr": err.getvalue()})


def _outcome(call, tmp: Path):
    """What `call(tmp / "labels.csv")` returns, or its error with `tmp` cut from the message."""
    try:
        return {"value": call(tmp / "labels.csv")}
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {str(exc).replace(f'{tmp}/', '')}"}


def label_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, (text, _) in LABEL_CASES.items():
            (tmp / "labels.csv").write_bytes(text.encode())
            _emit({"labels": name, **_outcome(lambda path: cli.read_labels_csv(path).tolist(), tmp)})
        for name, call in LIBRARY_LABEL_CASES.items():
            (tmp / "labels.csv").unlink(missing_ok=True)
            _emit({"truncation": name, **_outcome(call, tmp)})


def api_digest() -> None:
    (commands,) = (action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    flags = {name: sorted(flag for action in parser._actions
                          for flag in action.option_strings or [action.dest])
             for name, parser in commands.choices.items()}
    params = {cls.__name__: [field.name for field in dataclasses.fields(cls)]
              for cls in (KindapParams, KmeansParams, SrParams, SynthSpec)}
    _emit({"api": sorted(kindicators.__all__), "params": params, "flags": flags})


def main() -> int:
    solve_digests()
    front_end_digest()
    cluster_and_file_digests()
    label_digests()
    api_digest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
