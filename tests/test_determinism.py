"""Determinism across BLAS thread counts.

The README's contract: labels and iteration counts do not depend on the BLAS
thread count; bit-identical objectives are promised only for a fixed BLAS
configuration. The generator's raw points are bit-identical under any
thread count, and its embedding agrees within EMBEDDING_ATOL. Each side runs
in its own process, because the thread count is read when the BLAS library
loads. Run as a script, this module solves the cells named on the command
line and prints the outcome as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Three cells of the acceptance sweep and one at k = 100, where almost every
# KindAP Procrustes step takes the eigendecomposition route:
# (k, rho, seed, seed index).
CELLS = [(10, 0.33, 1, 0), (25, 0.66, 2, 1), (50, 0.66, 3, 2), (100, 0.33, 1, 0)]
REPLICATIONS = 10
EMBEDDING_ATOL = 1e-12


def solve_cells(cells) -> list[dict]:
    from kindicators.baselines import KmeansParams, SrParams, kmeans_solve, sr_solve
    from kindicators.cli import stable_cell_seed
    from kindicators.kindap import kindap_solve
    from kindicators.synthgen import SynthSpec, generate

    out = []
    for k, rho, seed, index in cells:
        data = generate(SynthSpec(k=k, rho=rho, per_cluster=40, seed=seed))
        kindap = kindap_solve(data.embedded)
        km = kmeans_solve(
            data.embedded.matrix,
            k,
            KmeansParams(
                replications=REPLICATIONS, seed=stable_cell_seed(seed, k, rho, "kmeans", index)
            ),
        )
        sr = sr_solve(
            data.embedded,
            SrParams(replications=REPLICATIONS, seed=stable_cell_seed(seed, k, rho, "sr", index)),
        )
        out.append(
            {
                "raw_sha256": hashlib.sha256(data.raw.tobytes()).hexdigest(),
                "embedded": data.embedded.matrix.tolist(),
                "kindap_labels": kindap.labels.tolist(),
                "kindap_inner_iters": kindap.trace.inner_iters_per_outer,
                "kindap_outer_iters": kindap.trace.outer_iters,
                "kindap_objective": kindap.kind_objective,
                "kmeans_labels": km.labels.tolist(),
                "kmeans_iters": [len(h) for h in km.trace.replication_histories],
                "kmeans_objectives": km.trace.replication_objectives,
                "sr_labels": sr.labels.tolist(),
                "sr_iters": [len(h) for h in sr.trace.replication_histories],
                "sr_objectives": sr.trace.replication_objectives,
            }
        )
    return out


def _run_with_threads(threads: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: str(threads) for name in THREAD_VARIABLES})
    proc = subprocess.run(
        [sys.executable, __file__, json.dumps(CELLS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_labels_and_iteration_counts_do_not_depend_on_blas_threads():
    one, two = _run_with_threads(1), _run_with_threads(2)
    assert len(one) == len(two) == len(CELLS)
    for cell, a, b in zip(CELLS, one, two):
        for key, value in a.items():
            if key == "embedded":
                gap = np.max(np.abs(np.array(b[key]) - np.array(value)))
                assert gap <= EMBEDDING_ATOL, f"{cell}: embeddings differ by {gap:.1e}"
            elif key.endswith(("objective", "objectives")):
                np.testing.assert_allclose(b[key], value, rtol=1e-9, atol=1e-12, err_msg=key)
            else:
                assert b[key] == value, f"{cell}: {key} differs between 1 and 2 BLAS threads"


if __name__ == "__main__":
    print(json.dumps(solve_cells(json.loads(sys.argv[1]))))
