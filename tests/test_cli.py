import csv
import json
import tracemalloc

import numpy as np
import pytest

from kindicators import cli
from kindicators.cli import (
    BENCH_FIELDS,
    DataFileError,
    _read_matrix_csv_by_rows,
    main,
    read_labels_csv,
    read_matrix_csv,
    run_bench,
    stable_cell_seed,
    validate_result_payload,
    write_labels_csv,
    write_matrix_csv,
)
from kindicators.core import make_indicator
from kindicators.evaluation import accuracy


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-12, 12)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        np.testing.assert_array_equal(read_matrix_csv(path), m)


def test_labels_csv_round_trip(tmp_path):
    labels = np.array([0, 3, 1, 1, 2])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    assert np.array_equal(read_labels_csv(path), labels)


def test_matrix_csv_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    code = main(["cluster", str(path), "--method", "kindap"])
    assert code == 3


def _read_outcome(read, path):
    try:
        m = read(path)
    except DataFileError as exc:
        return type(exc).__name__, str(exc)
    return m.shape, m.tobytes()


# Plain numeric files the two readers must agree on, valid and malformed,
# plus bytes where np.loadtxt alone would differ from csv + float().
CSV_CASES = {
    "lf": "1,2\n3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "cr": "1,2\r3,4\r",
    "blank_lines": "1,2\n\n\r\n3,4",
    "spaces_signs": " 1 , +2 \n-0,.5\n",
    "exponents": "5.,1e-400\n1E+5,-7e3\n",
    "one_cell": "42\n",
    "one_column": "1\n2\n3\n",
    "empty_cell": "1,,2\n",
    "trailing_comma": "1,2,\n",
    "inner_space": "1 2,3\n",
    "space_line": "1,2\n \n3,4\n",
    "ragged": "1,2\n3\n",
    "bad_exponent": "1e,2\n",
    "double_sign": "--1,2\n",
    "double_point": "1..2,3\n",
    "no_digits": ",\n",
    "overflow": "1e400,2\n",
    "empty": "",
    "only_newlines": "\n\n",
    "file_separator": "1,2\x1c\n",
    "no_break_space": "1,2\xa0\n",
    "vertical_tab": "1\x0b,2\n",
    "over_field_limit": "0" * csv.field_size_limit() + "1,2\n",
    # Written with surrogateescape: the byte 0xff, which is not UTF-8.
    "not_utf8": "\udcff,1\n2,3\n",
}


@pytest.mark.parametrize("text", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_matrix_csv_fast_path_matches_row_reader(tmp_path, text):
    # On plain numeric files read_matrix_csv takes np.loadtxt; every file must
    # come out as from the csv + float() reader: same bits and shape, or the
    # same error (np.loadtxt strips "\x1c", str.splitlines breaks lines at it,
    # and np.loadtxt reads cells longer than csv's field limit; float() and
    # csv.reader do none of these).
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert _read_outcome(read_matrix_csv, path) == _read_outcome(_read_matrix_csv_by_rows, path)


def test_matrix_csv_fast_path_bit_identical_on_random_data(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((50, 30)) * 10.0 ** rng.integers(-300, 300, size=(50, 30))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    expected = _read_matrix_csv_by_rows(path)

    def row_reader_called(path):
        raise AssertionError("plain numeric file fell back to the row reader")

    monkeypatch.setattr(cli, "_read_matrix_csv_by_rows", row_reader_called)
    got = read_matrix_csv(path)
    assert got.shape == m.shape and got.tobytes() == expected.tobytes() == m.tobytes()


def test_matrix_csv_fast_path_streams_lines(tmp_path):
    # The row reader holds every cell as a Python float before the array
    # exists (peak 6.2 MB here); the fast path holds the array and a line.
    m = np.random.default_rng(5).standard_normal((500, 300))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    tracemalloc.start()
    try:
        read_matrix_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * m.nbytes


@pytest.mark.parametrize(
    "text, expected",
    [('"1",2\n', [[1.0, 2.0]]), ("1_0,2\n", [[10.0, 2.0]]), ("1\t,2\n", [[1.0, 2.0]])],
    ids=["quoted", "underscore", "tab"],
)
def test_matrix_csv_other_bytes_use_row_reader(tmp_path, text, expected):
    path = tmp_path / "m.csv"
    path.write_text(text)
    np.testing.assert_array_equal(read_matrix_csv(path), expected)


def test_synth_writes_expected_shapes(tmp_path):
    out = tmp_path / "d"
    code = main(
        ["synth", "--k", "10", "--rho", "0.33", "--seed", "1", "--out", str(out), "--quiet"]
    )
    assert code == 0
    raw = read_matrix_csv(out / "raw.csv")
    truth = read_labels_csv(out / "truth.csv")
    embedded = read_matrix_csv(out / "embedded.csv")
    assert raw.shape == (400, 300)
    assert truth.shape == (400,)
    assert embedded.shape == (400, 10)


def test_synth_reruns_byte_identical(tmp_path):
    args = ["synth", "--k", "3", "--per-cluster", "4", "--ambient-dim", "8",
            "--seed", "5", "--quiet"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    for name in ("raw.csv", "truth.csv", "embedded.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_synth_rejects_bad_k(tmp_path):
    assert main(["synth", "--k", "0", "--out", str(tmp_path), "--quiet"]) == 2


def test_embed_pipeline_recovers_blocks(tmp_path):
    rng = np.random.default_rng(1)
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    data = np.vstack([c + rng.normal(0, 0.2, size=(10, 3)) for c in centers])
    truth = np.repeat(np.arange(3), 10)
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, data)
    emb_path = tmp_path / "emb.csv"
    assert main(
        ["embed", str(raw_path), "--k", "3", "--knn", "4", "--out", str(emb_path), "--quiet"]
    ) == 0
    result_path = tmp_path / "result.json"
    assert main(
        ["cluster", str(emb_path), "--method", "kindap", "--out", str(result_path), "--quiet"]
    ) == 0
    payload = json.loads(result_path.read_text())
    assert accuracy(payload["labels"], truth) == 1.0


def test_embed_rejects_large_knn(tmp_path):
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, np.random.default_rng(2).standard_normal((5, 2)))
    code = main(
        ["embed", str(raw_path), "--k", "2", "--knn", "5", "--out", str(tmp_path / "e.csv")]
    )
    assert code == 2


# Bad cells and the error each gets; "\udcff" is written as the byte 0xff,
# which is not UTF-8.
BAD_CELLS = {
    "nan": "non-finite value",
    "inf": "non-finite value",
    "-inf": "non-finite value",
    "1e400": "non-finite value",
    "\udcff": "not UTF-8 text",
    "0" * 131_073: "field larger than field limit",
}


@pytest.mark.parametrize(
    "bad", BAD_CELLS, ids=["nan", "inf", "-inf", "1e400", "not_utf8", "over_field_limit"]
)
def test_matrix_commands_reject_non_finite_cells(tmp_path, capsys, bad):
    matrix = np.random.default_rng(3).standard_normal((8, 3))
    csv_path = tmp_path / "m.csv"
    write_matrix_csv(csv_path, matrix)
    lines = csv_path.read_text().splitlines()
    lines[4] = lines[4].split(",", 1)[0] + f",{bad}," + lines[4].rsplit(",", 1)[1]
    csv_path.write_text("\n".join(lines) + "\n", errors="surrogateescape")
    truth_path = tmp_path / "truth.csv"
    write_labels_csv(truth_path, [0, 1] * 4)
    commands = [
        ["embed", str(csv_path), "--k", "2", "--knn", "3", "--out", str(tmp_path / "e.csv")],
        ["cluster", str(csv_path), "--method", "kindap", "--out", str(tmp_path / "r.json")],
        ["eval", "--pred", str(truth_path), "--truth", str(truth_path), "--embedded", str(csv_path)],
    ]
    for argv in commands:
        assert main(argv) == 3
        assert f"m.csv:5: {BAD_CELLS[bad]}" in capsys.readouterr().err


@pytest.mark.parametrize("knn", [1, 5])
def test_embed_rejects_data_whose_distances_overflow(tmp_path, capsys, knn):
    # 1e200 is finite, but its square is not: the squared distances of row 3
    # overflow to inf. At knn=1 that gave an embedding built from nan
    # distances; at knn=5 row 3 tied with itself and picked itself.
    matrix = np.random.default_rng(6).standard_normal((20, 3))
    matrix[3, 1] = 1e200
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, matrix)
    emb_path = tmp_path / "emb.csv"
    argv = ["embed", str(raw_path), "--k", "2", "--knn", str(knn), "--out", str(emb_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "rescale the data" in err and "Traceback" not in err
    assert not emb_path.exists()


def test_embed_gaussian_on_mostly_duplicate_rows_names_binary_weights(tmp_path, capsys):
    # 15 of 20 rows coincide, so the median neighbor distance, the Gaussian
    # bandwidth, is 0.
    rng = np.random.default_rng(7)
    matrix = np.vstack([np.tile([1.0, 2.0, 3.0], (15, 1)), rng.standard_normal((5, 3))])
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, matrix)
    emb_path = tmp_path / "emb.csv"
    argv = ["embed", str(raw_path), "--k", "2", "--knn", "3", "--out", str(emb_path)]
    assert main(argv + ["--weight", "gaussian"]) == 3
    err = capsys.readouterr().err
    assert "--weight binary" in err and "Traceback" not in err
    assert not emb_path.exists()


def test_embed_warns_when_components_exceed_k(tmp_path, capsys):
    rng = np.random.default_rng(4)
    centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, np.vstack([c + rng.normal(0, 0.1, size=(6, 2)) for c in centers]))
    emb_path = tmp_path / "emb.csv"
    argv = ["embed", str(raw_path), "--knn", "2", "--out", str(emb_path), "--quiet"]
    assert main(argv + ["--k", "2"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: the kNN graph has 3 connected components")
    assert read_matrix_csv(emb_path).shape == (18, 2)
    assert main(argv + ["--k", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_embed_eigensolver_failure_exits_numeric(tmp_path, monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    from kindicators import embedding

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(embedding, "eigsh", no_convergence)
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, np.random.default_rng(5).standard_normal((200, 3)))
    argv = ["embed", str(raw_path), "--k", "4", "--knn", "8", "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 4


def test_cluster_deterministic_modulo_timing(tmp_path):
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=4, per_cluster=8, rho=0.5, ambient_dim=16, seed=3))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)
    payloads = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert main(
            ["cluster", str(emb_path), "--method", "kindap", "--out", str(out), "--quiet"]
        ) == 0
        payload = json.loads(out.read_text())
        payload.pop("wall_time_seconds")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_cluster_json_reports_stop_reasons(tmp_path):
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=25, per_cluster=40, rho=0.66, ambient_dim=300, seed=1))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)
    out = tmp_path / "kindap.json"
    assert main(["cluster", str(emb_path), "--method", "kindap", "--out", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    trace = payload["trace"]
    assert payload["schema"] == 1
    assert len(trace["stop_reasons"]) == trace["outer_iters"] == len(trace["inner_iters_per_outer"])
    assert trace["stop_reasons"][0] == "budget" and trace["inner_iters_per_outer"][0] == 20
    assert trace["stop_reasons"][-1] == "tol" and trace["outer_stop_reason"] == "tol"

    sr_out = tmp_path / "sr.json"
    assert main(
        [
            "cluster", str(emb_path), "--method", "sr", "--replications", "3",
            "--out", str(sr_out), "--quiet",
        ]
    ) == 0
    sr_trace = json.loads(sr_out.read_text())["trace"]
    assert len(sr_trace["stop_reasons"]) == 3
    assert set(sr_trace["stop_reasons"]) <= {"floor", "tol", "cap", "uphill"}
    assert sr_trace["outer_stop_reason"] is None


def test_cluster_json_reports_lloyd_stop_reasons(tmp_path):
    from kindicators.baselines import KmeansParams, kmeans_solve
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=25, per_cluster=40, rho=0.9, ambient_dim=300, seed=2))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)

    def traces(method, *flags):
        out = tmp_path / f"{method}.json"
        argv = ["cluster", str(emb_path), "--method", method, "--out", str(out), "--quiet"]
        assert main([*argv, *flags]) == 0
        return json.loads(out.read_text())

    # KM10: one reason per replication, the same as the library's.
    km = traces("kmeans", "--replications", "6", "--seed", "2", "--max-iters", "3")["trace"]
    direct = kmeans_solve(data.embedded.matrix, 25, KmeansParams(replications=6, seed=2, max_iters=3))
    assert km["stop_reasons"] == direct.trace.stop_reasons
    assert set(km["stop_reasons"]) == {"tol", "cap"}
    assert km["outer_stop_reason"] is None

    # KindAP then Lloyd: the polish's one reason, next to KindAP's own.
    polished = traces("kindap+l")
    assert polished["trace"]["stop_reasons"] == ["tol"]
    assert polished["kindap_trace"]["outer_stop_reason"] == "tol"


def test_cluster_kmeans_reproducible_best_of_ten(tmp_path):
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=4, per_cluster=8, rho=0.6, ambient_dim=16, seed=4))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(
            [
                "cluster", str(emb_path), "--method", "kmeans",
                "--replications", "10", "--seed", "7", "--out", str(out), "--quiet",
            ]
        ) == 0
        payload = json.loads(out.read_text())
        outputs.append(payload)
        assert len(payload["trace"]["replication_objectives"]) == 10
    assert outputs[0]["labels"] == outputs[1]["labels"]
    assert outputs[0]["kmeans_objective"] == outputs[1]["kmeans_objective"]


def test_cluster_reports_orthonormalization(tmp_path):
    rng = np.random.default_rng(5)
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, rng.standard_normal((12, 3)) * 4.0)
    out = tmp_path / "r.json"
    assert main(
        ["cluster", str(emb_path), "--method", "kindap", "--out", str(out), "--quiet"]
    ) == 0
    assert json.loads(out.read_text())["orthonormalized"] is True


def test_cluster_rejects_mismatched_k(tmp_path):
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, np.eye(5)[:, :3])
    code = main(["cluster", str(emb_path), "--method", "kindap", "--k", "4"])
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-inner", "0"],
        ["--tol-inner", "-1"],
        ["--method", "sr", "--tol", "0"],
        ["--max-iters", "0"],
        ["--method", "kmeans", "--max-iters", "0"],
        ["--tol-inner", "nan"],
        ["--tol-inner", "inf"],
        ["--tol-outer", "nan"],
        ["--tol-outer", "inf"],
        ["--method", "kmeans", "--tol", "nan"],
        ["--method", "sr", "--tol", "inf"],
    ],
    ids=[
        "max_inner",
        "tol_inner",
        "sr_tol",
        "max_iters",
        "kmeans_max_iters",
        "tol_inner_nan",
        "tol_inner_inf",
        "tol_outer_nan",
        "tol_outer_inf",
        "kmeans_tol_nan",
        "sr_tol_inf",
    ],
)
def test_cluster_bad_solver_flag_values_are_usage_errors(tmp_path, capsys, flags):
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, make_indicator([0, 0, 1, 1], 2).matrix)
    assert main(["cluster", str(emb_path), "--method", "kindap", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SHAPE_CASES = {
    "one_column": "need n >= d >= 2",
    "one_row": "need n >= d >= 2",
    "label_count": "emb.csv: 4 rows but 5 labels",
    "huge_label": "labels must be integers in 0..2**63 - 1",
    "json_not_utf8": "pred.json:2: not UTF-8 text",
}


@pytest.mark.parametrize("case, message", SHAPE_CASES.items(), ids=SHAPE_CASES.keys())
def test_bad_shapes_and_documents_are_data_errors(tmp_path, capsys, case, message):
    emb_path = tmp_path / "emb.csv"
    truth_path = tmp_path / "truth.csv"
    pred_path = tmp_path / "pred.json"
    labels = [0, 0, 1, 1]
    embedding = make_indicator(labels, 2).matrix
    if case == "one_column":
        embedding = np.ones((4, 1))
    elif case == "one_row":
        embedding = np.ones((1, 3))
    elif case == "label_count":
        labels = [0, 0, 1, 1, 1]
    write_matrix_csv(emb_path, embedding)
    write_labels_csv(truth_path, labels)
    payload = {
        "schema": 1, "method": "kindap", "labels": labels,
        "kmeans_objective": 0.0, "trace": {}, "params": {},
    }
    if case == "huge_label":
        payload["labels"] = [0, 0, 1, 2**63]
    pred_path.write_text(json.dumps(payload))
    if case == "json_not_utf8":
        pred_path.write_bytes(b'{"schema": 1,\n\xff}')
    commands = [
        ["eval", "--pred", str(pred_path), "--truth", str(truth_path), "--embedded", str(emb_path)]
    ]
    if case in ("one_column", "one_row"):
        commands.append(["cluster", str(emb_path), "--method", "kindap"])
    for argv in commands:
        assert main(argv) == 3
        assert message in capsys.readouterr().err


def test_cluster_rank_deficient_input_is_numerical_failure(tmp_path):
    col = np.arange(1.0, 7.0)[:, None]
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, np.hstack([col, 2.0 * col]))
    code = main(["cluster", str(emb_path), "--method", "kindap"])
    assert code == 4


def test_cluster_sr_and_warm_start_methods(tmp_path):
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=3, per_cluster=8, rho=0.4, ambient_dim=12, seed=8))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)

    sr_out = tmp_path / "sr.json"
    assert main(
        [
            "cluster", str(emb_path), "--method", "sr", "--replications", "4",
            "--seed", "2", "--out", str(sr_out), "--quiet",
        ]
    ) == 0
    sr_payload = json.loads(sr_out.read_text())
    assert len(sr_payload["trace"]["replication_objectives"]) == 4
    assert sr_payload["soft_indicator"] is None
    assert accuracy(sr_payload["labels"], data.truth) == 1.0

    wl_out = tmp_path / "wl.json"
    assert main(
        ["cluster", str(emb_path), "--method", "kindap+l", "--out", str(wl_out), "--quiet"]
    ) == 0
    wl_payload = json.loads(wl_out.read_text())
    assert "kindap_trace" in wl_payload
    assert wl_payload["soft_indicator"] is not None
    assert accuracy(wl_payload["labels"], data.truth) == 1.0


def test_result_json_revalidates_and_reevaluates(tmp_path):
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=3, per_cluster=10, rho=0.4, ambient_dim=12, seed=6))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)
    truth_path = tmp_path / "truth.csv"
    write_labels_csv(truth_path, data.truth)
    result_path = tmp_path / "result.json"
    assert main(
        ["cluster", str(emb_path), "--method", "kindap", "--out", str(result_path), "--quiet"]
    ) == 0
    payload = json.loads(result_path.read_text())
    validate_result_payload(payload)
    metrics_path = tmp_path / "metrics.json"
    assert main(
        [
            "eval", "--pred", str(result_path), "--truth", str(truth_path),
            "--embedded", str(emb_path), "--out", str(metrics_path), "--quiet",
        ]
    ) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["accuracy"] == 1.0
    assert metrics["kind_objective"] == pytest.approx(payload["kind_objective"], abs=1e-9)
    assert metrics["kmeans_objective"] == pytest.approx(payload["kmeans_objective"], abs=1e-9)


def test_eval_worked_cases(tmp_path):
    pred_path = tmp_path / "pred.csv"
    truth_path = tmp_path / "truth.csv"
    out = tmp_path / "m.json"
    write_labels_csv(truth_path, [0, 1, 1, 1])

    write_labels_csv(pred_path, [0, 1, 1, 1])
    assert main(["eval", "--pred", str(pred_path), "--truth", str(truth_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["accuracy"] == 1.0

    write_labels_csv(pred_path, [1, 0, 0, 0])  # permuted ids
    assert main(["eval", "--pred", str(pred_path), "--truth", str(truth_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["accuracy"] == 1.0

    write_labels_csv(pred_path, [0, 0, 1, 1])
    assert main(["eval", "--pred", str(pred_path), "--truth", str(truth_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["accuracy"] == 0.75


@pytest.mark.parametrize("bad", ["inf", "nan", "1.7", "-inf", "1e30", "\udcff"])
def test_eval_rejects_non_integer_labels(tmp_path, bad):
    pred_path = tmp_path / "pred.csv"
    truth_path = tmp_path / "truth.csv"
    # surrogateescape writes "\udcff" as the byte 0xff, which is not UTF-8.
    pred_path.write_text(f"0\n{bad}\n", errors="surrogateescape")
    write_labels_csv(truth_path, [0, 1])
    assert main(["eval", "--pred", str(pred_path), "--truth", str(truth_path)]) == 3


def test_labels_csv_accepts_integral_floats(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("3\n3.0\n0\n")
    assert read_labels_csv(path).tolist() == [3, 3, 0]


def test_eval_length_mismatch(tmp_path):
    pred_path = tmp_path / "pred.csv"
    truth_path = tmp_path / "truth.csv"
    write_labels_csv(pred_path, [0, 1])
    write_labels_csv(truth_path, [0, 1, 1])
    assert main(["eval", "--pred", str(pred_path), "--truth", str(truth_path)]) == 3


def test_bench_row_count_and_sorting(tmp_path):
    out = tmp_path / "bench"
    code = main(
        [
            "bench", "--k-list", "2,3", "--rho-list", "0.33", "--methods",
            "kindap,kmeans", "--replications", "3", "--seeds", "1,2",
            "--per-cluster", "5", "--ambient-dim", "8", "--out", str(out), "--quiet",
        ]
    )
    assert code == 0
    rows = _read_rows(out / "bench.csv")
    assert len(rows) == 2 * 1 * 2 * 2
    assert [r["method"] for r in rows[:2]] == ["kindap", "kindap"]
    keys = [(int(r["k"]), float(r["rho"]), r["method"], int(r["seed"])) for r in rows]
    assert keys == sorted(keys)
    assert list(rows[0].keys()) == list(BENCH_FIELDS)
    payload = json.loads((out / "bench.json").read_text())
    assert len(payload["rows"]) == len(rows)


def test_bench_records_cell_failures_and_continues(tmp_path):
    out = tmp_path / "bench"
    # k=8 exceeds ambient_dim=4, so those cells fail while k=3 succeeds.
    code = main(
        [
            "bench", "--k-list", "3,8", "--rho-list", "0.5", "--methods", "kindap",
            "--replications", "1", "--seeds", "1", "--per-cluster", "4",
            "--ambient-dim", "4", "--out", str(out), "--quiet",
        ]
    )
    assert code == 0
    rows = _read_rows(out / "bench.csv")
    assert len(rows) == 2
    by_k = {int(r["k"]): r for r in rows}
    assert by_k[3]["error"] == ""
    assert by_k[3]["accuracy"] == "1.0"
    assert by_k[8]["error"] != ""
    assert by_k[8]["accuracy"] == ""


def test_bench_method_accuracy_on_separable_data():
    cells = run_bench([3], [0.33], ["kindap", "kmeans", "sr", "kindap+l"], 3, [1],
                      per_cluster=10, ambient_dim=12)
    assert len(cells) == 4
    for cell in cells:
        assert cell.error is None
        assert cell.accuracy == 1.0
        assert cell.wall_time_seconds >= 0.0


def test_stable_cell_seed_deterministic_and_distinct():
    a = stable_cell_seed(1, 10, 0.33, "kindap", 0)
    assert a == stable_cell_seed(1, 10, 0.33, "kindap", 0)
    assert a != stable_cell_seed(1, 10, 0.33, "kmeans", 0)
    assert a != stable_cell_seed(2, 10, 0.33, "kindap", 0)
    assert a != stable_cell_seed(1, 25, 0.33, "kindap", 0)


def test_validate_result_payload_rejects_bad_documents():
    good = {
        "schema": 1,
        "method": "kindap",
        "labels": [0, 1],
        "kind_objective": 0.0,
        "kmeans_objective": 0.0,
        "trace": {},
        "params": {},
    }
    validate_result_payload(good)

    for corrupt in (
        {**good, "schema": 2},
        {**good, "labels": []},
        {**good, "labels": [0, -1]},
        {**good, "labels": [0, 2**63]},
        {**good, "kmeans_objective": -1.0},
        {key: value for key, value in good.items() if key != "trace"},
    ):
        with pytest.raises(DataFileError):
            validate_result_payload(corrupt)


def test_make_indicator_used_by_eval_path(tmp_path):
    # eval with --embedded recomputes objectives through the indicator path.
    h = make_indicator([0, 0, 1, 1], 2)
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, h.matrix)
    pred_path = tmp_path / "pred.csv"
    truth_path = tmp_path / "truth.csv"
    write_labels_csv(pred_path, [0, 0, 1, 1])
    write_labels_csv(truth_path, [1, 1, 0, 0])
    out = tmp_path / "m.json"
    assert main(
        [
            "eval", "--pred", str(pred_path), "--truth", str(truth_path),
            "--embedded", str(emb_path), "--out", str(out),
        ]
    ) == 0
    metrics = json.loads(out.read_text())
    assert metrics["accuracy"] == 1.0
    assert metrics["kind_objective"] == pytest.approx(0.0, abs=1e-12)
    assert metrics["kmeans_objective"] == pytest.approx(0.0, abs=1e-12)
