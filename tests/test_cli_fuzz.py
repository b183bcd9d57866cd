"""Fuzzed input files for the file-reading subcommands.

Whatever bytes `cluster`, `embed` and `eval` are given, `main` returns one of
the documented exit codes (0, 2, 3, 4) and never lets an exception escape.
The examples are derandomized and bounded, so the suite stays deterministic
and fast.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kindicators.cli import PLAIN_NUMERIC_BYTES, main, write_labels_csv, write_matrix_csv

EXIT_CODES = {0, 2, 3, 4}

def _fuzz_settings(examples):
    return settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _run(argv) -> int:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert "Traceback" not in stderr.getvalue()
    return code


def _check_all_commands(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fuzzed = tmp / "input.csv"
        fuzzed.write_bytes(data)
        fuzzed_json = tmp / "input.json"
        fuzzed_json.write_bytes(data)
        labels = tmp / "labels.csv"
        write_labels_csv(labels, [0, 1, 0, 1])
        commands = [
            ["cluster", str(fuzzed), "--method", "kindap", "--out", str(tmp / "r.json")],
            ["cluster", str(fuzzed), "--method", "kmeans", "--replications", "2",
             "--out", str(tmp / "r.json")],
            ["embed", str(fuzzed), "--k", "2", "--knn", "2", "--out", str(tmp / "e.csv")],
            ["eval", "--pred", str(fuzzed), "--truth", str(labels)],
            ["eval", "--pred", str(labels), "--truth", str(fuzzed)],
            ["eval", "--pred", str(labels), "--truth", str(labels), "--embedded", str(fuzzed)],
            ["eval", "--pred", str(fuzzed_json), "--truth", str(labels)],
        ]
        for argv in commands:
            assert _run(argv) in EXIT_CODES, argv


# Most arbitrary bytes fail to parse; mutated numeric files reach the solvers.
@_fuzz_settings(50)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_exit_with_documented_codes(data):
    _check_all_commands(data)


@st.composite
def mutated_numeric_text(draw) -> bytes:
    """A small valid numeric CSV with a few bytes replaced, inserted or deleted."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 4))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    buf = io.StringIO()
    for r in range(rows):
        buf.write(",".join(repr(v) for v in values[r * cols : (r + 1) * cols]) + "\n")
    text = bytearray(buf.getvalue().encode())
    alphabet = list(PLAIN_NUMERIC_BYTES) + list(b'\t"_\x00\xff')
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.sampled_from(alphabet))
        if action == "insert" or pos == len(text):
            text.insert(pos, byte)
        elif action == "replace":
            text[pos] = byte
        else:
            del text[pos]
    return bytes(text)


@_fuzz_settings(150)
@given(mutated_numeric_text())
def test_mutated_numeric_files_exit_with_documented_codes(data):
    _check_all_commands(data)


def test_fuzz_harness_sees_valid_input_succeed():
    # The harness itself: a well-formed 4 x 2 embedding clusters and evaluates.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.csv"
        write_matrix_csv(path, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]) / np.sqrt(2))
        assert _run(["cluster", str(path), "--method", "kindap", "--out", str(Path(tmp) / "r.json")]) == 0
