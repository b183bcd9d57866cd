"""Command-line surface: synthetic data, spectral embedding, clustering, evaluation, benchmarks.

Matrix CSVs are comma-separated with no header (values written with 17
significant digits, so write-then-read round-trips exactly); label CSVs are
one-column matrix CSVs of 0-based ids; results are versioned JSON
documents. Exit codes: 0 success, 2 usage error (UsageError), 3 data error
(ClusteringError), 4 numerical failure (NumericalError or numpy's LinAlgError).
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import KmeansParams, SrParams, kmeans_solve, lloyd_solve, sr_solve
from .core import (
    ClusteringError,
    ClusterResult,
    EmbeddedData,
    NumericalError,
    SolverTrace,
    _first_non_id,
    _integer_labels,
    make_indicator,
    require_counts,
    require_positive,
    validate_embedding,
)
from .embedding import knn_graph, spectral_embed
from .evaluation import accuracy, kind_objective, kmeans_objective, soft_indicator
from .kindap import KindapParams, kindap_solve, warm_start_centers
from .synthgen import SynthSpec, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

SCHEMA_VERSION = 1
METHODS = ("kindap", "kmeans", "sr", "kindap+l")


class UsageError(Exception):
    """Bad flags or flag values (exit code 2)."""


# ---------------------------------------------------------------------------
# File formats


# Bytes of a plain numeric CSV. On lines made of these alone, numpy's C
# reader accepts the same cells as csv.reader + float() and rounds them to the
# same floats (both use Python's correctly rounded string-to-double).
PLAIN_NUMERIC_BYTES = b"0123456789.eE+-, \r\n"


class _NotPlainNumeric(Exception):
    """Raised from inside np.loadtxt to hand the file to a slower, more general reader."""


def _plain_numeric_lines(fh):
    limit = csv.field_size_limit()
    any_cells = False
    for line in fh:
        # A line no longer than csv's field limit holds no longer field.
        if line.translate(None, PLAIN_NUMERIC_BYTES) or len(line) > limit:
            raise _NotPlainNumeric
        for text in line.decode("ascii").splitlines():
            any_cells = any_cells or bool(text)
            yield text
    if not any_cells:
        # np.loadtxt would warn and return an empty array.
        raise _NotPlainNumeric


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless comma-separated matrix; parse errors carry line numbers.

    Every cell must be a finite number: nan and inf are rejected with
    ClusteringError, like any other malformed cell.

    A plain numeric file of finite cells is parsed by np.loadtxt, which takes
    about 0.6 times as long as the Python row reader and streams its lines;
    anything else (other bytes, a parse error, a non-finite cell, a line
    longer than csv's field limit, no cells) goes to the row reader, which
    gives the same result or the error with its line number.
    """
    matrix = _load_plain_numeric(path, float)
    if matrix is not None and np.isfinite(matrix).all():
        return matrix
    return _read_matrix_csv_by_rows(path)


def _load_plain_numeric(path, dtype):
    """The file through np.loadtxt as `dtype`, or None unless it is plain numeric and parses."""
    try:
        with open(path, "rb") as fh:
            return np.loadtxt(
                _plain_numeric_lines(fh), delimiter=",", comments=None, dtype=dtype, ndmin=2
            )
    except (_NotPlainNumeric, ValueError, OSError):
        return None


def _not_utf8(path) -> ClusteringError:
    """A ClusteringError naming the line of the file's first non-UTF-8 byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start] + b"x").splitlines())
        return ClusteringError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})")
    return ClusteringError(f"{path}: not UTF-8 text")


def _read_matrix_csv_by_rows(path) -> np.ndarray:
    rows: list[list[float]] = []
    line_numbers: list[int] = []
    width = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for line_no, record in enumerate(reader, start=1):
                # Empty and whitespace-only lines hold no row.
                if len(record) <= 1 and not "".join(record).strip():
                    continue
                try:
                    row = [float(cell) for cell in record]
                except ValueError as exc:
                    raise ClusteringError(f"{path}:{line_no}: {exc}") from exc
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ClusteringError(
                        f"{path}:{line_no}: expected {width} columns, got {len(row)}"
                    )
                rows.append(row)
                line_numbers.append(line_no)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except csv.Error as exc:
        raise ClusteringError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ClusteringError(f"{path}: empty matrix")
    matrix = np.asarray(rows, dtype=float)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ClusteringError(f"{path}:{line_numbers[np.argmin(finite)]}: non-finite value")
    return matrix


def write_matrix_csv(path, matrix) -> None:
    """Write `matrix` as a headerless CSV, each cell with 17 significant digits.

    An integer-dtype matrix is written with every digit (``%d``), so any
    int64 reads back exactly. Every other cell must be finite, as
    :func:`read_matrix_csv` requires: a NaN or infinite cell raises
    ValueError naming its 1-based row and column before the file is opened.
    Each row is formatted by one ``%`` call, so memory stays O(one row).
    """
    m = np.atleast_2d(np.asarray(matrix))
    if np.issubdtype(m.dtype, np.integer):
        cell = "%d"
    else:
        cell = "%.17g"
        m = m.astype(float, copy=False)
        # min and max propagate NaN, and neither builds a temporary.
        if not (np.isfinite(m.min(initial=0.0)) and np.isfinite(m.max(initial=0.0))):
            row, col = np.argwhere(~np.isfinite(m))[0]
            raise ValueError(
                f"cannot write the non-finite value {m[row, col]} at row {row + 1}, column {col + 1}"
            )
    fmt = ",".join([cell] * m.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        for row in m:
            fh.write(fmt % tuple(row.tolist()))


def read_labels_csv(path) -> np.ndarray:
    """Read one cluster id (an integer in 0..2^63 - 1) per line, as a one-column
    :func:`read_matrix_csv`. An id may be spelled as a float ("3.0"). Floats
    merge neighbouring ids from 2^53 up, so a file holding such an id is read
    again as int64, which needs plain integers. Errors name the 1-based row."""
    values = read_matrix_csv(path)
    if values.shape[1] != 1:
        raise ClusteringError(f"{path}: expected one label per line, got {values.shape[1]} columns")
    labels = values[:, 0]
    i = _first_non_id(np.minimum(labels, 2.0**53))  # the re-read judges ids from 2^53 up
    if i is not None:
        raise ClusteringError(f"{path}: label {labels[i]} in row {i + 1} is not an integer id")
    if labels.max() < 2.0**53:
        return labels.astype(int)
    exact = _load_plain_numeric(path, np.int64)
    if exact is None:
        raise ClusteringError(f"{path}: the id in row {np.argmax(labels >= 2.0**53) + 1} is 2^53 "
                              "or more, so it must be a plain integer within int64")
    return exact[:, 0]


def write_labels_csv(path, labels) -> None:
    """Write one integer id per line: a one-column integer :func:`write_matrix_csv`.

    A value that is not an integer id raises ClusteringError before the file is opened.
    """
    write_matrix_csv(path, _integer_labels(labels)[:, None])


def _trace_payload(trace: SolverTrace) -> dict:
    """Every SolverTrace field but the per-replication histories, each copied shallowly."""
    return {
        f.name: copy.copy(getattr(trace, f.name))
        for f in fields(SolverTrace)
        if f.name != "replication_histories"
    }


def result_payload(
    method: str,
    result: ClusterResult,
    *,
    seed: int,
    replications: int,
    orthonormalized: bool,
    wall_time_seconds: float,
    params: dict,
    soft_values=None,
    kindap_trace: SolverTrace | None = None,
) -> dict:
    payload = {
        "schema": SCHEMA_VERSION,
        "method": method,
        "n": int(result.labels.size),
        "k": int(result.labels.max()) + 1,
        "seed": int(seed),
        "replications": int(replications),
        "orthonormalized": bool(orthonormalized),
        "labels": [int(v) for v in result.labels],
        "kind_objective": None if result.kind_objective is None else float(result.kind_objective),
        "kmeans_objective": float(result.kmeans_objective),
        "soft_indicator": None if soft_values is None else [float(v) for v in soft_values],
        "trace": _trace_payload(result.trace),
        "params": params,
        "wall_time_seconds": float(wall_time_seconds),
    }
    if kindap_trace is not None:
        payload["kindap_trace"] = _trace_payload(kindap_trace)
    return payload


def validate_result_payload(payload: dict) -> None:
    """Raise ClusteringError unless `payload` matches the result document schema."""
    if not isinstance(payload, dict):
        raise ClusteringError("result document must be a JSON object")
    if type(payload.get("schema")) is not int or payload["schema"] != SCHEMA_VERSION:
        raise ClusteringError(f"unsupported schema: {payload.get('schema')!r}")
    for key in ("method", "labels", "kmeans_objective", "trace", "params"):
        if key not in payload:
            raise ClusteringError(f"result document missing key {key!r}")
    if payload["method"] not in METHODS:
        raise ClusteringError(f"unknown method: {payload['method']!r}")
    labels = payload["labels"]
    if not isinstance(labels, list) or not labels:
        raise ClusteringError("labels must be a nonempty list")
    # json.load reads true/false as bools, which are ints, and NaN/Infinity as floats.
    if not all(type(v) is int and 0 <= v < 2**63 for v in labels):
        raise ClusteringError("labels must be integers in 0..2**63 - 1")
    for key in ("kind_objective", "kmeans_objective"):
        value = payload.get(key)
        if value is not None and not (type(value) in (int, float) and 0 <= value < np.inf):
            raise ClusteringError(f"{key} must be a nonnegative number or null")
    if not isinstance(payload["trace"], dict):
        raise ClusteringError("trace must be an object")


def write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise ClusteringError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # deep nesting; an over-long integer
        raise ClusteringError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Solver dispatch


def _method_params(
    method: str, replications: int, seed: int, **given
) -> tuple[KindapParams, KmeansParams | SrParams]:
    """KindapParams and the baseline's params (SrParams for "sr", else KmeansParams) for `method`.

    Only "kmeans" and "sr" replicate: the "kindap+l" polish is one Lloyd run.
    Each setting in `given` goes to the type with that field; the rest keep
    the defaults. Both are built from the given values for every method
    (only then does a method that does not replicate get replications=1), so
    a bad value always raises ValueError.
    """
    kindap = {f.name: given.pop(f.name) for f in fields(KindapParams) if f.name in given}
    baseline = (SrParams if method == "sr" else KmeansParams)(
        replications=replications, seed=seed, **given
    )
    if method not in ("kmeans", "sr"):
        baseline = replace(baseline, replications=1)
    return KindapParams(**kindap), baseline


def run_method(
    method: str,
    embedded: EmbeddedData,
    kindap_params: KindapParams,
    baseline_params: KmeansParams | SrParams,
):
    """Run one clustering method on validated embedded data with :func:`_method_params`' output.

    Returns (result, stage_one). For "kindap+l" the result is the Lloyd
    polish, carrying KindAP's relaxed assignment, and `stage_one` the KindAP
    result it started from; otherwise `stage_one` is None.
    """
    k = embedded.k
    if method == "kindap":
        return kindap_solve(embedded, kindap_params), None
    if method == "kindap+l":
        stage_one = kindap_solve(embedded, kindap_params)
        centers = warm_start_centers(embedded, stage_one)
        result = lloyd_solve(embedded.matrix, k, centers, baseline_params)
        result.relaxed = stage_one.relaxed
        return result, stage_one
    if method == "kmeans":
        return kmeans_solve(embedded.matrix, k, baseline_params), None
    if method == "sr":
        return sr_solve(embedded, baseline_params), None
    raise UsageError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")


def _iteration_counts(result: ClusterResult, stage_one: ClusterResult | None) -> tuple[int, int]:
    """Outer and total inner iterations (one per history entry); "kindap+l" adds KindAP's."""
    trace = result.trace
    inner = sum(len(h) for h in trace.replication_histories) or len(trace.objective_history)
    if stage_one is None:
        return trace.outer_iters, inner
    return stage_one.trace.outer_iters, inner + len(stage_one.trace.objective_history)


# ---------------------------------------------------------------------------
# Benchmark harness

@dataclass
class BenchCell:
    method: str
    k: int
    rho: float
    replications: int
    seed: int
    accuracy: float | None = None
    kind_objective: float | None = None
    kmeans_objective: float | None = None
    wall_time_seconds: float | None = None
    outer_iters: int | None = None
    inner_iters_total: int | None = None
    error: str | None = None
    trace: SolverTrace | None = None

    def row(self) -> dict:
        return {name: getattr(self, name) for name in BENCH_FIELDS}


BENCH_FIELDS = tuple(f.name for f in fields(BenchCell) if f.name != "trace")


def stable_cell_seed(base_seed: int, k: int, rho: float, method: str, seed_index: int) -> int:
    """Deterministic per-cell solver seed, independent of sweep execution order."""
    key = f"{base_seed}:{k}:{rho!r}:{method}:{seed_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def run_bench(
    k_list,
    rho_list,
    methods,
    replications: int,
    seeds,
    per_cluster: int = 40,
    ambient_dim: int = 300,
    quiet: bool = True,
) -> list[BenchCell]:
    """Full-factorial sweep over (k, rho, method, seed) on synthetic data.

    Every method within a cell group sees the same dataset (generated from the
    group's seed); solver randomness is seeded per cell by
    :func:`stable_cell_seed`, and a row's `replications` is the count its
    method ran. A value that one field checks on its own raises UsageError
    before any cell runs; other per-cell failures become rows with an
    `error` value and the sweep continues, so the row count always equals
    the product of the list cardinalities. Rows come back sorted by (k, rho,
    method, seed).
    """
    k_list = list(k_list)
    rho_list = list(rho_list)
    methods = list(methods)
    seeds = list(seeds)
    if not (k_list and rho_list and methods and seeds):
        raise UsageError("k-list, rho-list, methods, and seeds must be nonempty")
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}")
    try:  # SynthSpec's order, so a bad value gets the message `synth` gives it
        for k in k_list:
            require_counts(2, k=k)
        require_counts(1, per_cluster=per_cluster, ambient_dim=ambient_dim)
        for seed in seeds:
            require_counts(0, seed=seed)
        for rho in rho_list:
            require_positive(rho=rho)
        KmeansParams(replications=replications)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sizes = {"per_cluster": per_cluster, "ambient_dim": ambient_dim}
    cells: list[BenchCell] = []
    for k in k_list:
        for rho in rho_list:
            for seed_index, seed in enumerate(seeds):
                data, error = None, None
                try:
                    data = generate(SynthSpec(k=k, rho=rho, seed=seed, **sizes))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                for method in methods:
                    cell_seed = stable_cell_seed(seed, k, rho, method, seed_index)
                    params = _method_params(method, replications, cell_seed)
                    cell = BenchCell(method, k, rho, params[1].replications, seed, error=error)
                    cells.append(cell)
                    if data is not None:
                        try:
                            started = time.perf_counter()
                            result, stage_one = run_method(method, data.embedded, *params)
                            cell.wall_time_seconds = time.perf_counter() - started
                            cell.accuracy = accuracy(result.labels, data.truth)
                            cell.kind_objective = result.kind_objective
                            cell.kmeans_objective = result.kmeans_objective
                            cell.outer_iters, cell.inner_iters_total = _iteration_counts(
                                result, stage_one
                            )
                            cell.trace = result.trace
                        except Exception as exc:
                            cell.error = f"{type(exc).__name__}: {exc}"
                    if not quiet:
                        status = cell.error or f"accuracy={cell.accuracy:.4f}"
                        print(
                            f"bench k={k} rho={rho} method={method} seed={seed}: {status}",
                            file=sys.stderr,
                        )
    cells.sort(key=lambda c: (c.k, c.rho, c.method, c.seed))
    return cells


def write_bench_csv(path, cells: list[BenchCell]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_FIELDS)
        writer.writeheader()
        for cell in cells:
            writer.writerow({key: "" if v is None else v for key, v in cell.row().items()})


# ---------------------------------------------------------------------------
# Subcommands


def _require_out(args, kind="path"):
    if args.out is None:
        raise UsageError(f"--out {kind} is required for this command")
    return Path(args.out)


def _cmd_synth(args) -> int:
    out_dir = _require_out(args, "directory")
    try:
        spec = SynthSpec(
            k=args.k,
            per_cluster=args.per_cluster,
            rho=args.rho,
            ambient_dim=args.ambient_dim,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    data = generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "raw.csv", data.raw)
    write_labels_csv(out_dir / "truth.csv", data.truth)
    write_matrix_csv(out_dir / "embedded.csv", data.embedded.matrix)
    if not args.quiet:
        print(f"wrote raw/truth/embedded CSVs to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_embed(args) -> int:
    out = _require_out(args, "file")
    matrix = read_matrix_csv(args.input)
    n = matrix.shape[0]
    if not 2 <= args.k <= n:
        raise UsageError(f"--k must satisfy 2 <= k <= n (n={n})")
    if not 1 <= args.knn < n:
        raise UsageError(f"--knn must satisfy 1 <= knn < n (n={n})")
    graph = knn_graph(matrix, args.knn, weight=args.weight)
    components, _ = graph.components
    if components > args.k:
        print(
            f"warning: the kNN graph has {components} connected components, more than "
            f"--k {args.k}, so the embedding is not unique (it keeps the first {args.k})",
            file=sys.stderr,
        )
    embedded = spectral_embed(graph, args.k, row_normalize=args.row_normalize)
    write_matrix_csv(out, embedded.matrix)
    if not args.quiet:
        print(f"wrote {n}x{args.k} embedding to {out}", file=sys.stderr)
    return EXIT_OK


def _read_embedding(path, labels=None) -> EmbeddedData:
    """Read and validate an embedding CSV; given `labels`, check one per row."""
    try:
        embedded = validate_embedding(read_matrix_csv(path))
    except ValueError as exc:
        raise ClusteringError(f"{path}: {exc}") from exc
    if labels is not None and labels.size != embedded.n:
        raise ClusteringError(f"{path}: {embedded.n} rows but {labels.size} labels")
    return embedded


def _cmd_cluster(args) -> int:
    # The solver flags given on the command line; the rest keep the params' defaults.
    flags = ("max_outer", "max_inner", "tol_inner", "tol_outer", "max_iters", "tol")
    given = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    try:
        kindap_params, baseline_params = _method_params(
            args.method, args.replications, args.seed, **given
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    embedded = _read_embedding(args.input)
    started = time.perf_counter()
    result, stage_one = run_method(args.method, embedded, kindap_params, baseline_params)
    elapsed = time.perf_counter() - started
    # The settings the method read: KindAP's, Lloyd's or SR's, or both for "kindap+l".
    params = asdict(kindap_params) if args.method in ("kindap", "kindap+l") else {}
    if args.method != "kindap":
        params.update(max_iters=baseline_params.max_iters, tol=baseline_params.tol)
    payload = result_payload(
        args.method,
        result,
        seed=args.seed,
        replications=baseline_params.replications,
        orthonormalized=embedded.orthonormalized,
        wall_time_seconds=elapsed,
        params=params,
        soft_values=None if result.relaxed is None else soft_indicator(result.relaxed).s,
        kindap_trace=None if stage_one is None else stage_one.trace,
    )
    validate_result_payload(payload)
    write_json(args.out, payload)
    return EXIT_OK


def _cmd_eval(args) -> int:
    pred_path = Path(args.pred)
    if pred_path.suffix.lower() == ".json":
        payload = read_json(pred_path)
        validate_result_payload(payload)
        pred = np.asarray(payload["labels"], dtype=int)
    else:
        pred = read_labels_csv(pred_path)
    truth = read_labels_csv(args.truth)
    metrics = {
        "schema": SCHEMA_VERSION,
        "n": int(pred.size),
        "accuracy": accuracy(pred, truth),
    }
    if args.embedded is not None:
        embedded = _read_embedding(args.embedded, pred)
        metrics["kind_objective"] = kind_objective(embedded, make_indicator(pred, embedded.k))
        metrics["kmeans_objective"] = kmeans_objective(embedded, pred)
    write_json(args.out, metrics)
    return EXIT_OK


def _parse_list(text: str, flag: str, convert) -> list:
    try:
        values = [convert(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} must be a nonempty comma-separated list")
    return values


def _cmd_bench(args) -> int:
    out_dir = _require_out(args, "directory")
    k_list = _parse_list(args.k_list, "--k-list", int)
    rho_list = _parse_list(args.rho_list, "--rho-list", float)
    methods = _parse_list(args.methods, "--methods", str.strip)
    seeds = _parse_list(args.seeds, "--seeds", int)
    cells = run_bench(
        k_list,
        rho_list,
        methods,
        args.replications,
        seeds,
        per_cluster=args.per_cluster,
        ambient_dim=args.ambient_dim,
        quiet=args.quiet,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bench_csv(out_dir / "bench.csv", cells)
    write_json(
        out_dir / "bench.json",
        {
            "schema": SCHEMA_VERSION,
            "replications": args.replications,
            "per_cluster": args.per_cluster,
            "ambient_dim": args.ambient_dim,
            "rows": [cell.row() for cell in cells],
        },
    )
    if not args.quiet:
        print(f"wrote {len(cells)} bench rows to {out_dir}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="kindicators",
        description="Subspace-matching clustering toolkit and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", parents=[common], help="generate a separable synthetic dataset")
    p_synth.add_argument("--k", type=int, required=True, help="number of clusters")
    p_synth.add_argument("--rho", type=float, default=0.33, help="cluster sphere radius")
    p_synth.add_argument("--per-cluster", type=int, default=40, help="points per cluster")
    p_synth.add_argument("--ambient-dim", type=int, default=300, help="ambient dimension")
    p_synth.add_argument("--seed", type=int, default=0, help="random seed")
    p_synth.set_defaults(func=_cmd_synth)

    p_embed = sub.add_parser("embed", parents=[common], help="spectral-embed a raw matrix CSV")
    p_embed.add_argument("input", help="matrix CSV (no header)")
    p_embed.add_argument("--k", type=int, required=True, help="embedding width / cluster count")
    p_embed.add_argument("--knn", type=int, default=5, help="neighbor count")
    p_embed.add_argument("--row-normalize", action="store_true", help="unit-normalize rows")
    p_embed.add_argument("--weight", choices=("binary", "gaussian"), default="binary")
    p_embed.set_defaults(func=_cmd_embed)

    p_cluster = sub.add_parser("cluster", parents=[common], help="cluster an embedded matrix CSV")
    p_cluster.add_argument("input", help="embedded matrix CSV")
    p_cluster.add_argument("--method", choices=METHODS, required=True)
    p_cluster.add_argument("--replications", type=int, default=10)
    p_cluster.add_argument("--seed", type=int, default=0, help="base random seed")
    # Solver flags default to None: the params types hold the defaults.
    p_cluster.add_argument(
        "--max-outer", type=int, help=f"KindAP outer-phase cap (default {KindapParams.max_outer})"
    )
    p_cluster.add_argument(
        "--max-inner", type=int, help=f"KindAP inner-phase cap (default {KindapParams.max_inner})"
    )
    p_cluster.add_argument(
        "--tol-inner", type=float, help=f"KindAP inner tolerance (default {KindapParams.tol_inner})"
    )
    p_cluster.add_argument(
        "--tol-outer", type=float, help=f"KindAP outer tolerance (default {KindapParams.tol_outer})"
    )
    p_cluster.add_argument(
        "--max-iters",
        type=int,
        help=f"Lloyd/SR iteration cap (default {KmeansParams.max_iters} for kmeans and "
        f"kindap+l, {SrParams.max_iters} for sr)",
    )
    p_cluster.add_argument(
        "--tol", type=float, help=f"Lloyd/SR tolerance (default {KmeansParams.tol})"
    )
    p_cluster.set_defaults(func=_cmd_cluster)

    p_eval = sub.add_parser("eval", parents=[common], help="score predicted labels against ground truth")
    p_eval.add_argument("--pred", required=True, help="result JSON or label CSV")
    p_eval.add_argument("--truth", required=True, help="ground-truth label CSV")
    p_eval.add_argument("--embedded", default=None, help="embedded CSV for objective recomputation")
    p_eval.set_defaults(func=_cmd_eval)

    # No prefix matching, so `--seed` is not read as `--seeds`.
    p_bench = sub.add_parser(
        "bench", parents=[common], allow_abbrev=False, help="full-factorial synthetic benchmark sweep"
    )
    p_bench.add_argument("--k-list", required=True, help="comma-separated cluster counts")
    p_bench.add_argument("--rho-list", required=True, help="comma-separated radii")
    p_bench.add_argument("--methods", required=True, help="comma-separated methods")
    p_bench.add_argument("--replications", type=int, default=10)
    p_bench.add_argument("--seeds", default="0", help="comma-separated dataset seeds")
    p_bench.add_argument("--per-cluster", type=int, default=40)
    p_bench.add_argument("--ambient-dim", type=int, default=300)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # NumericalError is a ClusteringError, so it must be caught first.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ClusteringError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc.filename or ''}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("data error: not enough memory", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
