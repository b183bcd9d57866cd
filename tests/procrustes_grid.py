"""The shipped Procrustes step against the SVD-only one, end to end.

Runs `kindap_solve` and the spectral-rotation baseline twice per dataset:
with `procrustes_rotation` as shipped (the polar factor from the
eigendecomposition of M'M when that is well conditioned) and with
`oracles.reference_procrustes_rotation` patched in (always one SVD).
Prints one row per dataset and exits 1 when a gate fails:

- KindAP: labels, per-phase inner counts, stop reasons and kind objective
  identical; gap histories within 1e-10 relative.
- SR10 (`--sr`): per replication labels and history lengths identical,
  histories within 1e-12 relative.

Datasets: the 18 acceptance-sweep cells, the benchmark's two `many_k`
datasets, the `large_n` data and the 81 `SynthSpec` cells of
`tests/budget_grid.py`. The rows also count the calls that took each route
(`svd`, `eigh`, and `eigh` then `svd`) in the shipped runs.

Usage: ``PYTHONPATH=src python tests/procrustes_grid.py [--sr] [--skip-large]``
(about 3 minutes on 2 cores with `--sr`, which adds the spectral-rotation
gate).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np

from budget_grid import SYNTH_CELLS
from kindicators import baselines, kindap
from kindicators.baselines import SrParams, _random_orthogonal
from kindicators.cli import stable_cell_seed
from kindicators.kindap import kindap_solve
from kindicators.projections import procrustes_rotation
from kindicators.synthgen import SynthSpec, generate
from oracles import reference_procrustes_rotation

GAP_RTOL = 1e-10
SR_RTOL = 1e-12

SWEEP = [(k, rho, seed) for k in (10, 25, 50) for rho in (0.33, 0.66) for seed in (1, 2, 3)]
DATASETS = (
    [(f"sweep_k{k}_rho{rho}_s{seed}", SynthSpec(k=k, rho=rho, per_cluster=40, seed=seed))
     for k, rho, seed in SWEEP]
    + [(f"many_k_rho{rho}", SynthSpec(k=100, rho=rho, per_cluster=40)) for rho in (0.33, 0.66)]
    + [("large_n", SynthSpec(k=50, rho=0.66, per_cluster=2000))]
    + [(f"synth_k{s.k}_rho{s.rho}_d{s.ambient_dim}_s{s.seed}", s) for s in SYNTH_CELLS]
)


@contextmanager
def svd_only():
    with mock.patch.object(kindap, "procrustes_rotation", reference_procrustes_rotation), \
            mock.patch.object(baselines, "procrustes_rotation", reference_procrustes_rotation):
        yield


def recorded(cross, called: list):
    """`procrustes_rotation(cross)`, appending each np.linalg routine it runs to `called`."""
    def recording(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        return call

    with mock.patch.object(np.linalg, "eigh", recording("eigh")), \
            mock.patch.object(np.linalg, "svd", recording("svd")):
        return procrustes_rotation(cross)


@contextmanager
def counting_routes(counts: Counter):
    """Send the solvers' Procrustes calls through `recorded`, counting each route."""
    def traced(cross):
        called = []
        out = recorded(cross, called)
        counts[" then ".join(called)] += 1
        return out

    with mock.patch.object(kindap, "procrustes_rotation", traced), \
            mock.patch.object(baselines, "procrustes_rotation", traced):
        yield


def _relative_gap(new, old) -> float:
    new, old = np.asarray(new), np.asarray(old)
    if new.shape != old.shape:
        return np.inf
    return float(np.max(np.abs(new - old) / np.maximum(1.0, np.abs(old)), initial=0.0))


def kindap_failures(name, basis, counts: Counter | None = None) -> list[str]:
    """The KindAP gate on one embedding; `counts` collects the shipped routes."""
    with counting_routes(Counter() if counts is None else counts):
        new = kindap_solve(basis)
    with svd_only():
        old = kindap_solve(basis)
    failures = []
    for what, a, b in (
        ("labels", new.labels.tolist(), old.labels.tolist()),
        ("inner counts", new.trace.inner_iters_per_outer, old.trace.inner_iters_per_outer),
        ("stop reasons", new.trace.stop_reasons, old.trace.stop_reasons),
        ("outer stop", new.trace.outer_stop_reason, old.trace.outer_stop_reason),
        ("kind objective", new.kind_objective, old.kind_objective),
    ):
        if a != b:
            failures.append(f"{name}: KindAP {what} differ")
    gap = _relative_gap(new.trace.objective_history, old.trace.objective_history)
    if gap > GAP_RTOL:
        failures.append(f"{name}: KindAP gap histories differ by {gap:.1e} relative")
    return failures


def sr_failures(name, spec, basis, counts) -> list[str]:
    params = SrParams(replications=10, seed=stable_cell_seed(spec.seed, spec.k, spec.rho, "sr", 0))
    failures = []
    for i, stream in enumerate(np.random.SeedSequence(params.seed).spawn(params.replications)):
        rotation = _random_orthogonal(spec.k, np.random.default_rng(stream))
        with counting_routes(counts):
            new_labels, _, new_history, _ = baselines._sr_once(basis, rotation, params)
        with svd_only():
            old_labels, _, old_history, _ = baselines._sr_once(basis, rotation, params)
        if not np.array_equal(new_labels, old_labels) or len(new_history) != len(old_history):
            failures.append(f"{name}: SR replication {i} labels or length differ")
        elif _relative_gap(new_history, old_history) > SR_RTOL:
            failures.append(f"{name}: SR replication {i} histories differ beyond {SR_RTOL}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sr", action="store_true", help="also gate SR10 on every dataset")
    parser.add_argument("--skip-large", action="store_true", help="leave out the large_n data")
    args = parser.parse_args(argv)
    failures = []
    for name, spec in DATASETS:
        if args.skip_large and name == "large_n":
            continue
        basis = generate(spec).embedded
        counts = Counter()
        cell = kindap_failures(name, basis, counts)
        if args.sr:
            cell += sr_failures(name, spec, basis, counts)
        print(f"{name}  {'ok' if not cell else 'FAIL'}  {dict(sorted(counts.items()))}", flush=True)
        failures += cell
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
