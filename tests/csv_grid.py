"""The shipped matrix CSV writer against the one-f-string-per-cell reference.

Writes each matrix twice, with `cli.write_matrix_csv` (one ``%`` format per
row) and with `oracles.reference_write_matrix_csv` (one f-string per cell),
then reads the shipped file back with `cli.read_matrix_csv`. Prints one row
per matrix with both write times and the read time, and exits 1 when the
two files differ by a byte or the values read back differ from the matrix
by a bit.

Matrices: the `raw_pipeline` benchmark's raw data (2,000 x 300) and an
F2-sized one (20,000 x 300), both from `generate`.

Usage: ``PYTHONPATH=src python tests/csv_grid.py [--markdown]`` (about 20 s
on 2 cores, the reference writer most of it; the F2 files take 240 MB of
temporary disk).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from budget_grid import _print_table
from kindicators.cli import read_matrix_csv, write_matrix_csv
from kindicators.synthgen import SynthSpec, generate
from oracles import reference_write_matrix_csv

MATRICES = {
    "raw_pipeline": SynthSpec(k=20, per_cluster=100, rho=0.66),
    "F2": SynthSpec(k=50, per_cluster=400, rho=0.66),
}


def _timed(f):
    started = time.perf_counter()
    out = f()
    return out, time.perf_counter() - started


def run_matrix(name: str, spec: SynthSpec, tmp: Path) -> dict:
    raw = generate(spec).raw
    shipped, reference = tmp / f"{name}.csv", tmp / f"{name}_reference.csv"
    _, shipped_s = _timed(lambda: write_matrix_csv(shipped, raw))
    _, reference_s = _timed(lambda: reference_write_matrix_csv(reference, raw))
    back, read_s = _timed(lambda: read_matrix_csv(shipped))
    same_bytes = shipped.read_bytes() == reference.read_bytes()
    row = {
        "matrix": name,
        "shape": f"{raw.shape[0]}x{raw.shape[1]}",
        "mb": shipped.stat().st_size / 1e6,
        "shipped_s": shipped_s,
        "reference_s": reference_s,
        "read_s": read_s,
        "same": same_bytes and back.shape == raw.shape and back.tobytes() == raw.tobytes(),
    }
    shipped.unlink()
    reference.unlink()
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        rows = [run_matrix(name, spec, Path(tmp)) for name, spec in MATRICES.items()]
    header = ["matrix", "shape", "CSV MB", "write s", "reference write s", "ratio", "read s",
              "identical"]
    lines = [
        [
            row["matrix"],
            row["shape"],
            f"{row['mb']:.2f}",
            f"{row['shipped_s']:.3f}",
            f"{row['reference_s']:.3f}",
            f"{row['shipped_s'] / row['reference_s']:.2f}",
            f"{row['read_s']:.3f}",
            "yes" if row["same"] else "NO",
        ]
        for row in rows
    ]
    _print_table(header, lines, args.markdown)
    failures = [row["matrix"] for row in rows if not row["same"]]
    for name in failures:
        print("FAIL", name, "bytes differ from the reference writer, or values from the matrix")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
