import csv
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from kindicators import cli
from kindicators.cli import (
    UsageError,
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
from kindicators.core import (
    BinaryIndicator,
    ClusteringError,
    ClusterResult,
    NumericalError,
    make_indicator,
)
from kindicators.evaluation import accuracy

from oracles import reference_write_labels_csv, reference_write_matrix_csv


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Cells whose text is easy to get wrong: signed zero, the smallest subnormal
# and normal, the largest finite values, and integral values (no ".0").
EDGE_CELLS = [
    -0.0,
    0.0,
    5e-324,
    -2.5e-310,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1.0,
    -3.0,
    2.0**53 + 2.0,
    1e22,
    0.1,
]


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    edges = np.array(EDGE_CELLS)
    matrices = [rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-12, 12) for _ in range(5)]
    matrices += [edges.reshape(3, 4), edges.reshape(1, -1), edges.reshape(-1, 1)]
    path = tmp_path / "m.csv"
    for m in matrices:
        write_matrix_csv(path, m)
        got = read_matrix_csv(path)
        assert got.shape == m.shape and got.tobytes() == m.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(
            st.sampled_from(EDGE_CELLS), st.floats(allow_nan=False, allow_infinity=False)
        ),
    )
)
@example(np.array(EDGE_CELLS).reshape(1, -1))
@example(np.array(EDGE_CELLS).reshape(-1, 1))
@example(np.zeros((3, 0)))
def test_matrix_csv_bytes_match_the_per_cell_writer(m):
    with tempfile.TemporaryDirectory() as tmp:
        shipped, reference = Path(tmp) / "shipped.csv", Path(tmp) / "reference.csv"
        write_matrix_csv(shipped, m)
        reference_write_matrix_csv(reference, m)
        assert shipped.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_csv_writer_refuses_non_finite_cells(tmp_path, bad):
    m = np.ones((4, 3))
    m[2, 1] = bad
    m[3, 0] = np.nan
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="row 3, column 2"):
        write_matrix_csv(path, m)
    assert not path.exists()


def test_matrix_csv_writer_holds_one_row(tmp_path):
    # The file buffers take about 16 KB and a formatted row 1 KB; a writer
    # that converted the whole matrix to Python floats would hold 20,000 rows.
    m = np.random.default_rng(3).standard_normal((20000, 50))
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "m.csv", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_labels_csv_round_trip(tmp_path):
    labels = np.array([0, 3, 1, 1, 2])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    assert np.array_equal(read_labels_csv(path), labels)


@pytest.mark.parametrize("labels", [[0, 1, 9, 10, 12345, 2**53 - 1, 2**53 + 1, 2**63 - 1]], ids=["ids"])
def test_labels_csv_bytes_match_the_per_label_writer(tmp_path, labels):
    shipped, reference = tmp_path / "shipped.csv", tmp_path / "reference.csv"
    write_labels_csv(shipped, labels)
    reference_write_labels_csv(reference, labels)
    assert shipped.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(
    "labels", [[1.7, 2.2], [0, np.nan], [0, 2.0**63]], ids=["fractional", "nan", "two_to_63"]
)
def test_write_labels_csv_rejects_non_integer_labels(tmp_path, labels):
    # The int cast used to write 1.7 and 2.2 as 1 and 2.
    path = tmp_path / "labels.csv"
    with pytest.raises(ClusteringError, match=r"^label \S+ at index [01] is not an integer id$"):
        write_labels_csv(path, labels)
    assert not path.exists()


# One rule for a cluster id: a nonempty 1-D bool, int, uint or float array of
# integers in 0..2^63 - 1. Every entry point that takes labels applies it
# alike, with the same error, and writes no file.
BAD_LABEL_INPUTS = {
    "uint64_max": (np.array([2**64 - 1, 3], dtype=np.uint64),
                   "label 18446744073709551615 at index 0 is not an integer id"),
    "two_d": ([[0, 1]], "labels must be a nonempty 1-D sequence"),
    "scalar": (3, "labels must be a nonempty 1-D sequence"),
    "empty": ([], "labels must be a nonempty 1-D sequence"),
    "negative": ([-1, 0], "label -1 at index 0 is not an integer id"),
    "strings": (["a", "b"], "labels must be integer ids, got dtype <U1"),
    "complex": (np.array([1 + 1j, 0]), "labels must be integer ids, got dtype complex128"),
    "fractional": ([0.5, 1], "label 0.5 at index 0 is not an integer id"),
    "nan": ([0, np.nan], "label nan at index 1 is not an integer id"),
}
LABEL_ENTRY_POINTS = {
    "make_indicator": lambda labels, path: make_indicator(labels, 2),
    "ClusterResult": lambda labels, path: ClusterResult(labels, None, 0.0),
    "BinaryIndicator": lambda labels, path: BinaryIndicator(np.eye(2), labels),
    "accuracy_pred": lambda labels, path: accuracy(labels, [0, 1]),
    "accuracy_truth": lambda labels, path: accuracy([0, 1], labels),
    "write_labels_csv": lambda labels, path: write_labels_csv(path, labels),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", LABEL_ENTRY_POINTS.values(), ids=LABEL_ENTRY_POINTS.keys())
@pytest.mark.parametrize("labels, message", BAD_LABEL_INPUTS.values(), ids=BAD_LABEL_INPUTS.keys())
def test_every_label_entry_point_applies_one_rule(tmp_path, labels, message, call):
    path = tmp_path / "labels.csv"
    with pytest.raises(ClusteringError, match=f"^{re.escape(message)}$"):
        call(labels, path)
    assert not path.exists()


def test_labels_csv_round_trip_is_exact_above_two_to_53(tmp_path):
    # As floats, 2^53 + 1 rounds to 2^53: two clusters would read as one.
    labels = np.array([2**53 + 1, 2**53, 2**63 - 1])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    assert read_labels_csv(path).tolist() == labels.tolist()


def test_matrix_csv_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    code = main(["cluster", str(path), "--method", "kindap"])
    assert code == 3


def _read_outcome(read, path):
    try:
        m = read(path)
    except ClusteringError as exc:
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


@pytest.mark.parametrize("line", [" ", "\t", " \r"], ids=["space", "tab", "space_cr"])
def test_matrix_csv_skips_whitespace_only_lines(tmp_path, line):
    # Plain numeric bytes ("1,2\n \n") reach np.loadtxt first; a tab sends
    # the file straight to the row reader. Both skip the line.
    path = tmp_path / "m.csv"
    path.write_text(f"1,2\n{line}\n3,4\n", newline="")
    for read in (read_matrix_csv, _read_matrix_csv_by_rows):
        np.testing.assert_array_equal(read(path), [[1.0, 2.0], [3.0, 4.0]])


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


@pytest.mark.parametrize(
    "flags",
    [["--per-cluster", "99999999999999999999"], ["--ambient-dim", "99999999999999999999"]],
    ids=["per_cluster", "ambient_dim"],
)
def test_synth_rejects_specs_too_large_for_one_array(tmp_path, capsys, flags):
    assert main(["synth", "--k", "2", *flags, "--out", str(tmp_path), "--quiet"]) == 2
    assert "too large for one array" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "error, code, err",
    [
        (UsageError("bad"), 2, "error: bad\n"),
        (ClusteringError("bad"), 3, "data error: bad\n"),
        (NumericalError("bad"), 4, "numerical failure: bad\n"),
        (np.linalg.LinAlgError("bad"), 4, "numerical failure: bad\n"),
        (OSError(5, "bad", "f.csv"), 3, "data error: f.csv: [Errno 5] bad: 'f.csv'\n"),
        (MemoryError(), 3, "data error: not enough memory\n"),
    ],
    ids=["usage", "clustering", "numerical", "linalg", "os", "memory"],
)
def test_main_maps_each_error_to_its_exit_code(tmp_path, capsys, monkeypatch, error, code, err):
    # NumericalError is a ClusteringError: main must still map it to 4.
    def fail(spec):
        raise error

    monkeypatch.setattr(cli, "generate", fail)
    assert main(["synth", "--k", "3", "--out", str(tmp_path), "--quiet"]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "{missing}", "--method", "kindap"],
        ["eval", "--pred", "{missing}", "--truth", "{missing}"],
    ],
    ids=["cluster_input", "eval_pred_json"],
)
def test_missing_input_file_is_a_data_error(tmp_path, capsys, argv):
    # The readers let OSError through, and main maps it to exit 3.
    missing = str(tmp_path / "missing.json")
    argv = [arg.format(missing=missing) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out.json"), "--quiet"]) == 3
    err = f"data error: {missing}: [Errno 2] No such file or directory: {missing!r}\n"
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["synth", "--k", "3"], "directory"),
        (["embed", "raw.csv", "--k", "2"], "file"),
        (["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kindap"], "directory"),
    ],
    ids=["synth", "embed", "bench"],
)
def test_missing_out_is_rejected_before_any_work(capsys, monkeypatch, argv, kind):
    def work(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    for name in ("generate", "read_matrix_csv", "run_bench"):
        monkeypatch.setattr(cli, name, work)
    assert main([*argv, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: --out {kind} is required for this command\n"


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_synth_rejects_non_finite_rho(tmp_path, capsys, rho):
    assert main(["synth", "--k", "3", "--rho", rho, "--out", str(tmp_path), "--quiet"]) == 2
    assert "rho must be positive and finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("method", [None, "kmeans", "sr", "kindap"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, method):
    if method is None:
        argv = ["synth", "--k", "3", "--out", str(tmp_path / "d")]
    else:
        emb_path = tmp_path / "emb.csv"
        write_matrix_csv(emb_path, make_indicator([0, 0, 1, 1], 2).matrix)
        argv = ["cluster", str(emb_path), "--method", method, "--out", str(tmp_path / "r.json")]
    assert main([*argv, "--seed", "-1", "--quiet"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "d").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["bench", "embed", "eval"])
def test_seed_is_not_an_option_of_commands_that_ignore_it(tmp_path, capsys, command):
    # Each argv runs as it stands; with --seed added it is a usage error.
    raw_path, labels_path, out = tmp_path / "raw.csv", tmp_path / "labels.csv", tmp_path / "out"
    write_matrix_csv(raw_path, np.random.default_rng(2).standard_normal((10, 3)))
    write_labels_csv(labels_path, np.arange(10) % 2)
    argv = {
        "bench": ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kindap",
                  "--per-cluster", "4", "--ambient-dim", "4", "--out", str(out)],
        "embed": ["embed", str(raw_path), "--k", "2", "--knn", "3", "--out", str(out)],
        "eval": ["eval", "--pred", str(labels_path), "--truth", str(labels_path)],
    }[command]
    assert main([*argv, "--quiet"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "7", "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


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


def test_embed_rejects_k_above_row_count(tmp_path, capsys):
    raw_path = tmp_path / "raw.csv"
    write_matrix_csv(raw_path, np.random.default_rng(2).standard_normal((10, 3)))
    argv = ["embed", str(raw_path), "--k", "20", "--knn", "3", "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 2
    assert "--k must satisfy 2 <= k <= n (n=10)" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


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


@pytest.mark.parametrize("method", ["kindap", "kindap+l"])
def test_cluster_scores_relaxed_rows_with_no_positive_entry(tmp_path, method):
    # Row 19 of this embedding's relaxed assignment is all zero: it prefers
    # no cluster, so its confidence is 0.
    emb_path, out = tmp_path / "emb.csv", tmp_path / "r.json"
    write_matrix_csv(emb_path, np.random.default_rng(0).standard_normal((100, 3)))
    assert main(["cluster", str(emb_path), "--method", method, "--out", str(out)]) == 0
    soft = json.loads(out.read_text())["soft_indicator"]
    assert len(soft) == 100 and soft[19] == 0.0


def test_cluster_json_writes_every_trace_field_but_replication_histories(tmp_path):
    from dataclasses import fields

    from kindicators.core import SolverTrace
    from kindicators.kindap import kindap_solve
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=4, per_cluster=8, rho=0.5, ambient_dim=16, seed=3))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)
    expected = {f.name for f in fields(SolverTrace)} - {"replication_histories"}
    payloads = {}
    for method in cli.METHODS:
        out = tmp_path / f"{method}.json"
        argv = ["cluster", str(emb_path), "--method", method, "--out", str(out), "--quiet"]
        assert main(argv) == 0
        payloads[method] = json.loads(out.read_text())
        assert set(payloads[method]["trace"]) == expected
        assert ("kindap_trace" in payloads[method]) == (method == "kindap+l")
    # kindap+l writes its KindAP stage as a plain KindAP solve's trace.
    stage_one = kindap_solve(cli._read_embedding(emb_path)).trace
    assert payloads["kindap+l"]["kindap_trace"] == cli._trace_payload(stage_one)
    assert payloads["kindap+l"]["kindap_trace"] == payloads["kindap"]["trace"]


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
    assert trace["stop_reasons"][0] == "budget" and trace["inner_iters_per_outer"][0] == 3
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


def test_cluster_takes_its_defaults_from_the_params_types(tmp_path):
    # Without solver flags, `cluster` runs each method as the library's
    # params types would, and records the values it used: spectral rotation
    # at SrParams' 100 iterations, Lloyd at KmeansParams' 300.
    from dataclasses import asdict

    from kindicators.baselines import KmeansParams, SrParams, sr_solve
    from kindicators.kindap import KindapParams
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=10, per_cluster=20, rho=0.66, ambient_dim=60, seed=3))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)

    def params_and_labels(method):
        out = tmp_path / f"{method}.json"
        argv = ["cluster", str(emb_path), "--method", method, "--seed", "4", "--out", str(out)]
        assert main([*argv, "--quiet"]) == 0
        payload = json.loads(out.read_text())
        return payload["params"], payload["labels"]

    params, labels = params_and_labels("sr")
    assert params["max_iters"] == SrParams().max_iters == 100
    assert params["tol"] == SrParams().tol
    basis = cli._read_embedding(emb_path)
    assert labels == sr_solve(basis, SrParams(replications=10, seed=4)).labels.tolist()
    for method in ("kmeans", "kindap+l"):
        params, _ = params_and_labels(method)
        assert params["max_iters"] == KmeansParams().max_iters
    params, _ = params_and_labels("kindap")
    assert {key: params[key] for key in asdict(KindapParams())} == asdict(KindapParams())


KINDAP_FLAGS = {"max_outer": 50, "max_inner": 40, "tol_inner": 1e-4, "tol_outer": 1e-3}
LLOYD_FLAGS = {"max_iters": 30, "tol": 1e-5}


@pytest.mark.parametrize(
    "method, expected",
    [
        ("kindap", KINDAP_FLAGS),
        ("kmeans", LLOYD_FLAGS),
        ("sr", LLOYD_FLAGS),
        ("kindap+l", {**KINDAP_FLAGS, **LLOYD_FLAGS}),
    ],
)
def test_cluster_params_hold_only_the_settings_the_method_reads(tmp_path, method, expected):
    # Every solver flag is given, but `params` records only those the method reads.
    from kindicators.synthgen import SynthSpec, generate

    data = generate(SynthSpec(k=3, per_cluster=10, rho=0.5, ambient_dim=9, seed=5))
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, data.embedded.matrix)
    out = tmp_path / "result.json"
    flags = [
        arg
        for name, value in {**KINDAP_FLAGS, **LLOYD_FLAGS}.items()
        for arg in ("--" + name.replace("_", "-"), str(value))
    ]
    argv = ["cluster", str(emb_path), "--method", method, *flags, "--out", str(out), "--quiet"]
    assert main(argv) == 0
    assert json.loads(out.read_text())["params"] == expected


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


def test_cluster_has_no_k_flag(tmp_path, capsys):
    # The cluster count is the embedding's width, so there is nothing to choose.
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, np.eye(5)[:, :3])
    with pytest.raises(SystemExit) as exc:
        main(["cluster", str(emb_path), "--method", "kindap", "--k", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k" in capsys.readouterr().err


@pytest.mark.parametrize("replications", ["0", "-5"])
@pytest.mark.parametrize("method", cli.METHODS)
def test_cluster_rejects_replications_below_one_for_every_method(
    tmp_path, capsys, method, replications
):
    # kindap and kindap+l do not replicate, but still check the value given.
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, make_indicator([0, 0, 1, 1], 2).matrix)
    out = tmp_path / "r.json"
    argv = ["cluster", str(emb_path), "--method", method, "--replications", replications]
    assert main([*argv, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: replications must be >= 1, got {replications}\n"
    assert not out.exists()


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
        # Above the largest intp, the most streams SeedSequence.spawn makes.
        ["--method", "kmeans", "--replications", str(2**63)],
        ["--method", "sr", "--replications", str(2**63)],
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
        "kmeans_replications_huge",
        "sr_replications_huge",
    ],
)
def test_cluster_bad_solver_flag_values_are_usage_errors(tmp_path, capsys, flags):
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, make_indicator([0, 0, 1, 1], 2).matrix)
    assert main(["cluster", str(emb_path), "--method", "kindap", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode", ["binary", "magnitude"])
def test_cluster_has_no_rounding_flag(tmp_path, capsys, mode):
    # KindAP has one rounding rule, so there is nothing to choose.
    emb_path = tmp_path / "emb.csv"
    write_matrix_csv(emb_path, make_indicator([0, 0, 1, 1], 2).matrix)
    with pytest.raises(SystemExit) as exc:
        main(["cluster", str(emb_path), "--method", "kindap", "--rounding", mode])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rounding" in capsys.readouterr().err


SHAPE_CASES = {
    "one_column": "need n >= d >= 2",
    "one_row": "need n >= d >= 2",
    "label_count": "emb.csv: 4 rows but 5 labels",
    "huge_label": "labels must be integers in 0..2**63 - 1",
    "json_not_utf8": "pred.json:2: not UTF-8 text",
    "json_deep_nesting": "pred.json: maximum recursion depth exceeded",
    "json_long_integer": "pred.json: Exceeds the limit",
}
# Result documents that json.load rejects, written in place of a valid one.
BAD_JSON = {
    "json_not_utf8": b'{"schema": 1,\n\xff}',
    "json_deep_nesting": b"[" * 100_000 + b"]" * 100_000,
    "json_long_integer": b'{"schema": 1, "labels": [' + b"9" * 5000 + b"]}",
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
    if case in BAD_JSON:
        pred_path.write_bytes(BAD_JSON[case])
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


ABOVE_TWO_TO_53 = (
    "holds an id of 2^53 or more, which reads exactly only when every row is a plain integer "
    "within int64"
)
# Label files as one-column matrix CSVs: the values read, or the error's text.
LABEL_CASES = {
    "ints": ("3\n0\n", [3, 0]),
    "integral_floats": ("3.0\n0\n", [3, 0]),
    "blank_lines": ("1\n\n2\n\n", [1, 2]),
    "crlf": ("1\r\n2\r\n", [1, 2]),
    "padded": (" 1 \n2\n", [1, 2]),
    "negative": ("-1\n2\n", "labels.csv: label -1.0 in row 1 is not an integer id"),
    "underscore": ("1_0\n2\n", [10, 2]),
    "two_to_62": (f"{2**62}\n1\n", [2**62, 1]),
    "int64_max": (f"{2**63 - 1}\n0\n", [2**63 - 1, 0]),
    "int64_min": (
        f"{-2**63}\n0\n", "labels.csv: label -9.223372036854776e+18 in row 1 is not an integer id"
    ),
    # The sign is checked before ids of 2^53 or more are read again as int64.
    "negative_beside_two_to_53": (
        f"{2**53 + 1}\n-1\n", "labels.csv: label -1.0 in row 2 is not an integer id"
    ),
    "whitespace_line": ("1\n \t \n2\n", [1, 2]),
    "quoted": ('0\n"1"\n', [0, 1]),
    "fractional": ("0\n1.7\n", "labels.csv: label 1.7 in row 2 is not an integer id"),
    "huge": ("0\n1e30\n", f"labels.csv: row 2 {ABOVE_TWO_TO_53}"),
    "two_to_63": (f"{2**63}\n", f"labels.csv: row 1 {ABOVE_TWO_TO_53}"),
    # As floats both rows read 2^53, so two ids would merge into one cluster.
    "float_spelled_above_two_to_53": (
        f"{2**53 + 1}.0\n{2**53}\n", f"labels.csv: row 1 {ABOVE_TWO_TO_53}"
    ),
    "quoted_above_two_to_53": (
        f'"{2**53 + 1}"\n{2**53}\n', f"labels.csv: row 1 {ABOVE_TWO_TO_53}"
    ),
    # Row 1 is a plain int64; row 2's float spelling is what stops the int64 re-read.
    "two_to_53_beside_a_float": (f"{2**53 + 1}\n3.0\n", f"labels.csv: row 1 {ABOVE_TWO_TO_53}"),
    "inf": ("0\ninf\n", "labels.csv:2: non-finite value"),
    "two_columns": ("1,2\n", "labels.csv: expected one label per line, got 2 columns"),
    "empty": ("", "labels.csv: empty matrix"),
    "bare_commas": ("1\n,\n2\n", "labels.csv:2: could not convert"),
}


@pytest.mark.parametrize("text, expected", LABEL_CASES.values(), ids=LABEL_CASES.keys())
def test_labels_csv_reads_a_one_column_matrix(tmp_path, text, expected):
    path = tmp_path / "labels.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(ClusteringError, match=re.escape(expected)):
            read_labels_csv(path)
    else:
        labels = read_labels_csv(path)
        assert labels.dtype == int and labels.tolist() == expected


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
    assert list(rows[0].keys()) == [
        "method",
        "k",
        "rho",
        "replications",
        "seed",
        "accuracy",
        "kind_objective",
        "kmeans_objective",
        "wall_time_seconds",
        "outer_iters",
        "inner_iters_total",
        "error",
    ]
    payload = json.loads((out / "bench.json").read_text())
    assert len(payload["rows"]) == len(rows)


def _fail_generate_at_k8(monkeypatch):
    """Make `generate` raise for k = 8, so that group's cells fail while k = 3 runs."""
    def generate(spec):
        if spec.k == 8:
            raise ValueError("no data for k = 8")
        return real(spec)

    real = cli.generate
    monkeypatch.setattr(cli, "generate", generate)


def test_bench_records_cell_failures_and_continues(tmp_path, monkeypatch):
    _fail_generate_at_k8(monkeypatch)
    out = tmp_path / "bench"
    code = main(
        [
            "bench", "--k-list", "3,8", "--rho-list", "0.5", "--methods", "kindap",
            "--replications", "1", "--seeds", "1", "--per-cluster", "4",
            "--ambient-dim", "8", "--out", str(out), "--quiet",
        ]
    )
    assert code == 0
    rows = _read_rows(out / "bench.csv")
    assert len(rows) == 2
    by_k = {int(r["k"]): r for r in rows}
    assert by_k[3]["error"] == ""
    assert by_k[3]["accuracy"] == "1.0"
    assert by_k[8]["error"] == "ValueError: no data for k = 8"
    assert by_k[8]["accuracy"] == ""


def test_bench_records_a_solver_failure_as_an_error_row(monkeypatch):
    def fail(method, *args):
        if method == "sr":
            raise ArithmeticError("solver blew up")
        return real(method, *args)

    real = cli.run_method
    monkeypatch.setattr(cli, "run_method", fail)
    cells = run_bench([3], [0.33], ["kmeans", "sr"], 1, [1], per_cluster=10, ambient_dim=12)
    assert [(cell.method, cell.error) for cell in cells] == [
        ("kmeans", None),
        ("sr", "ArithmeticError: solver blew up"),
    ]
    assert cells[1].accuracy is None and cells[1].wall_time_seconds is None


@pytest.mark.parametrize(
    "k_list, err",
    [
        ("x", "error: --k-list: invalid literal for int() with base 10: 'x'\n"),
        (",", "error: --k-list must be a nonempty comma-separated list\n"),
    ],
    ids=["not_an_integer", "empty"],
)
def test_bench_bad_k_list_is_a_usage_error(tmp_path, capsys, k_list, err):
    argv = ["bench", "--k-list", k_list, "--rho-list", "0.5", "--methods", "kindap"]
    assert main([*argv, "--out", str(tmp_path / "bench"), "--quiet"]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("replications", ["0", str(2**63)], ids=["zero", "huge"])
def test_bench_bad_replications_is_a_usage_error(tmp_path, capsys, replications):
    # Checked as cluster checks it, before the sweep runs any cell.
    code = main(
        [
            "bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kmeans",
            "--replications", replications, "--seeds", "1", "--per-cluster", "4",
            "--ambient-dim", "4", "--out", str(tmp_path / "bench"), "--quiet",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: replications must be ")
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize(
    "methods, err",
    [(",", "error: --methods must be a nonempty comma-separated list\n"),
     ("foo", "error: unknown method 'foo'\n")],
    ids=["empty", "unknown"],
)
def test_bench_bad_methods_is_a_usage_error(tmp_path, capsys, methods, err):
    argv = ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", methods]
    assert main([*argv, "--out", str(tmp_path / "bench"), "--quiet"]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "bench").exists()


def test_bench_methods_are_stripped_like_the_other_lists(tmp_path):
    out = tmp_path / "bench"
    argv = ["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", " kindap , kmeans ",
            "--seeds", "1", "--per-cluster", "4", "--ambient-dim", "4"]
    assert main([*argv, "--out", str(out), "--quiet"]) == 0
    assert [r["method"] for r in _read_rows(out / "bench.csv")] == ["kindap", "kmeans"]


@pytest.mark.parametrize(
    "bench_flags, synth_flags",
    [
        (["--k-list", "3,1"], ["--k", "1"]),
        (["--rho-list", "0.5,0"], ["--rho", "0"]),
        (["--rho-list", "inf"], ["--rho", "inf"]),
        (["--per-cluster", "0"], ["--per-cluster", "0"]),
        (["--ambient-dim", "0"], ["--ambient-dim", "0"]),
        (["--seeds", "1,-1"], ["--seed", "-1"]),
        (["--seeds", "-1", "--per-cluster", "0"], ["--seed", "-1", "--per-cluster", "0"]),
        # Values that relate two settings: ambient_dim below a k, and a raw
        # matrix over numpy's size limit (refused before anything is allocated).
        (["--k-list", "3,8", "--per-cluster", "4", "--ambient-dim", "4"],
         ["--k", "8", "--per-cluster", "4", "--ambient-dim", "4"]),
        (["--per-cluster", "1000000000000", "--ambient-dim", "1000000"],
         ["--per-cluster", "1000000000000", "--ambient-dim", "1000000"]),
    ],
    ids=["k", "rho_zero", "rho_inf", "per_cluster", "ambient_dim", "seed", "seed_and_per_cluster",
         "ambient_dim_below_k", "too_large"],
)
def test_bench_checks_synth_values_before_the_sweep(tmp_path, capsys, bench_flags, synth_flags):
    # A value SynthSpec rejects stops the sweep before any cell, with the
    # message `synth` gives it.
    def run(argv):
        code = main([*argv, "--out", str(tmp_path / "out"), "--quiet"])
        return code, capsys.readouterr().err

    synth = run(["synth", "--k", "3", *synth_flags])
    bench = run(["bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kmeans", *bench_flags])
    assert bench == synth
    assert bench[0] == 2 and bench[1].startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_bench_rows_record_the_replications_that_ran(tmp_path):
    # Only kmeans and sr replicate; kindap and the kindap+l polish run once.
    out = tmp_path / "bench"
    code = main(
        [
            "bench", "--k-list", "3", "--rho-list", "0.5", "--methods", "kindap,kindap+l,kmeans",
            "--replications", "7", "--seeds", "1", "--per-cluster", "4", "--ambient-dim", "4",
            "--out", str(out), "--quiet",
        ]
    )
    assert code == 0
    expected = {"kindap": 1, "kindap+l": 1, "kmeans": 7}
    rows = _read_rows(out / "bench.csv")
    assert {r["method"]: int(r["replications"]) for r in rows} == expected
    payload = json.loads((out / "bench.json").read_text())
    assert {r["method"]: r["replications"] for r in payload["rows"]} == expected
    assert payload["replications"] == 7


def test_eval_rejects_a_result_whose_trace_is_not_an_object(tmp_path, capsys):
    pred = tmp_path / "pred.json"
    document = {"schema": 1, "method": "kindap", "labels": [0, 1], "kind_objective": 0.0,
                "kmeans_objective": 0.0, "trace": [], "params": {}}
    pred.write_text(json.dumps(document))
    truth = tmp_path / "truth.csv"
    write_labels_csv(truth, [0, 1])
    assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--quiet"]) == 3
    assert capsys.readouterr().err == "data error: trace must be an object\n"


def test_bench_prints_one_progress_line_per_row(tmp_path, capsys, monkeypatch):
    _fail_generate_at_k8(monkeypatch)
    out = tmp_path / "bench"
    code = main(
        [
            "bench", "--k-list", "3,8", "--rho-list", "0.5", "--methods", "kindap,sr",
            "--replications", "1", "--seeds", "1", "--per-cluster", "4",
            "--ambient-dim", "8", "--out", str(out),
        ]
    )
    assert code == 0
    rows = _read_rows(out / "bench.csv")
    progress = [line for line in capsys.readouterr().err.splitlines() if line.startswith("bench ")]
    assert len(progress) == len(rows) == 4
    assert sum("ValueError: no data for k = 8" in line for line in progress) == 2


def test_bench_method_accuracy_on_separable_data():
    cells = run_bench([3], [0.33], ["kindap", "kmeans", "sr", "kindap+l"], 3, [1],
                      per_cluster=10, ambient_dim=12)
    assert len(cells) == 4
    for cell in cells:
        assert cell.error is None
        assert cell.accuracy == 1.0
        assert cell.wall_time_seconds >= 0.0


def test_bench_wall_time_excludes_confidence_scoring(monkeypatch):
    # A sweep that scored confidences inside its timed call would turn
    # every KindAP cell into an error row.
    def scoring(*args, **kwargs):
        raise AssertionError("soft_indicator ran during a bench sweep")

    monkeypatch.setattr(cli, "soft_indicator", scoring)
    cells = run_bench([3], [0.33], ["kindap", "kindap+l"], 1, [1], per_cluster=10, ambient_dim=12)
    assert [cell.error for cell in cells] == [None, None]


def test_bench_holds_no_per_cell_assignment():
    # Each KindAP cell solves an n x k relaxed assignment (2,000 x 20 floats,
    # 320 KB); the finished sweep keeps only each cell's trace, so three more
    # seeds (six more cells) hold less than one such assignment more.
    sweep = dict(per_cluster=100, ambient_dim=30)
    run_bench([20], [0.33], ["kindap", "kindap+l"], 1, [0], **sweep)  # warm caches
    held = []
    for seeds in ([0], [0, 1, 2, 3]):
        tracemalloc.start()
        try:
            cells = run_bench([20], [0.33], ["kindap", "kindap+l"], 1, seeds, **sweep)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert all(cell.error is None for cell in cells)
        del cells
    assert held[1] - held[0] < 2_000 * 20 * 8


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
        {**good, "labels": [False, True]},
        {**good, "kmeans_objective": True},
        {**good, "kind_objective": True},
        {**good, "kmeans_objective": float("nan")},
        {**good, "kmeans_objective": float("inf")},
        {**good, "kind_objective": float("inf")},
        {**good, "schema": True},
        {**good, "schema": 1.0},
        {**good, "method": 5},
        {**good, "method": "nope"},
    ):
        with pytest.raises(ClusteringError):
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
