"""The shipped generator against the thin-SVD one, end to end.

Generates each dataset twice: with `synthgen.generate` as shipped (the
leading left singular vectors from the eigendecomposition of the smaller
Gram matrix when that is well conditioned) and with
`oracles.reference_generate` (always the thin SVD), then runs `kindap_solve`
on both embeddings. Prints one row per dataset, with the route `generate`
took and the largest embedding difference, and exits 1 when a gate fails:

- `raw` and `truth` bit-identical;
- embeddings within EMBEDDING_ATOL entrywise, and bit-identical where
  `generate` took the SVD;
- KindAP labels and per-phase inner counts identical.

Datasets: the 81 `SynthSpec` cells of `tests/budget_grid.py`, the four specs
of `test_generate_bit_identical_to_reference`, a square spec with one point
per cluster, a spec with fewer points than dimensions (the n x n Gram), the
ill-conditioned fallback spec, the benchmark's two `many_k` datasets and the
`large_n` data.

Usage: ``PYTHONPATH=src python tests/generate_grid.py [--skip-large]``
(about a minute on 2 cores).
"""

from __future__ import annotations

import argparse
import sys
from unittest import mock

import numpy as np

from budget_grid import SYNTH_CELLS
from kindicators.kindap import kindap_solve
from kindicators.synthgen import SynthSpec, generate
from oracles import reference_generate

EMBEDDING_ATOL = 1e-11

DATASETS = (
    [(f"synth_k{s.k}_rho{s.rho}_d{s.ambient_dim}_s{s.seed}", s) for s in SYNTH_CELLS]
    + [
        ("test_k2_d2", SynthSpec(k=2, per_cluster=1, rho=0.1, ambient_dim=2, seed=0)),
        ("test_k5_d9", SynthSpec(k=5, per_cluster=7, rho=0.66, ambient_dim=9, seed=4)),
        ("test_k10_d300", SynthSpec(k=10, per_cluster=40, rho=0.33, ambient_dim=300, seed=1)),
        ("test_k20_d50", SynthSpec(k=20, per_cluster=25, rho=3.0, ambient_dim=50, seed=9)),
        ("square_k50", SynthSpec(k=50, per_cluster=1, rho=0.33, ambient_dim=50)),
        ("wide_k10_n100_d300", SynthSpec(k=10, per_cluster=10, rho=0.66, ambient_dim=300)),
        ("fallback_k150", SynthSpec(k=150, per_cluster=1, rho=2.0, ambient_dim=150)),
    ]
    + [(f"many_k_rho{rho}", SynthSpec(k=100, rho=rho, per_cluster=40)) for rho in (0.33, 0.66)]
    + [("large_n", SynthSpec(k=50, rho=0.66, per_cluster=2000))]
)


def shipped(spec):
    """`generate(spec)` and the route it took: `svd` or `eigh`."""
    with mock.patch.object(np.linalg, "svd", side_effect=np.linalg.svd) as svd:
        data = generate(spec)
    return data, "svd" if svd.called else "eigh"


def dataset_failures(name, spec) -> tuple[list[str], str, float]:
    new, route = shipped(spec)
    old = reference_generate(spec)
    failures = []
    for what, a, b in (("raw", new.raw, old.raw), ("truth", new.truth, old.truth)):
        if not np.array_equal(a, b):
            failures.append(f"{name}: {what} differs")
    gap = float(np.max(np.abs(new.embedded.matrix - old.embedded.matrix)))
    if gap > (0.0 if route == "svd" else EMBEDDING_ATOL):
        failures.append(f"{name}: embeddings differ by {gap:.1e} on the {route} route")
    new_run, old_run = kindap_solve(new.embedded), kindap_solve(old.embedded)
    if not np.array_equal(new_run.labels, old_run.labels):
        failures.append(f"{name}: KindAP labels differ")
    if new_run.trace.inner_iters_per_outer != old_run.trace.inner_iters_per_outer:
        failures.append(f"{name}: KindAP inner counts differ")
    return failures, route, gap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-large", action="store_true", help="leave out the large_n data")
    args = parser.parse_args(argv)
    failures = []
    for name, spec in DATASETS:
        if args.skip_large and name == "large_n":
            continue
        cell, route, gap = dataset_failures(name, spec)
        print(f"{name}  {'ok' if not cell else 'FAIL'}  {route}  {gap:.1e}", flush=True)
        failures += cell
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
