"""KindAP's inner-phase budget against the full-phase rule on a fixed grid.

Runs `kindap_solve` twice per cell, as shipped (each inner phase starts with
`INNER_BUDGET` iterations) and with `INNER_BUDGET` raised to `max_inner`
(every phase runs until `tol_inner` or `max_inner`, the rule
`tests/test_kindap.py` gates against `reference_kindap_solve`).
Prints one row per cell and exits 1 when a gate fails:

- `synth`: 81 `SynthSpec` cells where every partition is recoverable. Both
  rules must give the same partition, the truth (accuracy 1.000), and kind
  objectives within 1e-12 relative.
- `blobs`: 27 `gaussian_blobs` cells (d = k; k 20, 50, 100; sigma 0.25,
  0.35, 0.45; seeds 0-2), where KindAP and k-means miss. Any change of
  trajectory can end in another local minimum, so the gate is on the family:
  the summed kind objective and the mean accuracy must be no worse, and no
  cell's objective worse by more than 1e-4 relative.

Usage: ``PYTHONPATH=src python tests/budget_grid.py [synth|blobs ...] [--markdown]``
(both families by default; about 4 minutes on 2 cores).
"""

from __future__ import annotations

import argparse
import sys
import time
from unittest import mock

import numpy as np

from kindicators import kindap
from kindicators.evaluation import accuracy
from kindicators.kindap import KindapParams, kindap_solve
from kindicators.synthgen import SynthSpec, generate
from oracles import gaussian_blobs

SYNTH_CELLS = (
    [
        SynthSpec(k=k, rho=rho, ambient_dim=300, seed=seed)
        for k in (10, 25, 50, 100, 150)
        for rho in (0.33, 0.66, 0.9)
        for seed in (0, 1, 2)
    ]
    + [
        SynthSpec(k=k, rho=rho, ambient_dim=300, seed=seed)
        for k in (10, 50, 100)
        for rho in (1.2, 1.6, 2.0)
        for seed in (0, 1)
    ]
    + [
        SynthSpec(k=k, rho=rho, ambient_dim=k + 5, seed=seed)
        for k in (20, 50, 100)
        for rho in (0.8, 1.0, 1.2)
        for seed in (0, 1)
    ]
)
BLOB_CELLS = [
    (k, sigma, seed) for k in (20, 50, 100) for sigma in (0.25, 0.35, 0.45) for seed in (0, 1, 2)
]
SAME_OBJECTIVE_RTOL = 1e-12
WORSE_CELL_RTOL = 1e-4


def _timed(basis):
    started = time.perf_counter()
    result = kindap_solve(basis)
    return result, time.perf_counter() - started


def run_cell(name: str, data) -> dict:
    with mock.patch.object(kindap, "INNER_BUDGET", KindapParams().max_inner):
        old, old_s = _timed(data.embedded)
    new, new_s = _timed(data.embedded)
    return {
        "cell": name,
        "same": accuracy(new.labels, old.labels) == 1.0,
        "old_obj": old.kind_objective,
        "new_obj": new.kind_objective,
        "rel": (new.kind_objective - old.kind_objective) / max(old.kind_objective, 1e-300),
        "old_acc": accuracy(old.labels, data.truth),
        "new_acc": accuracy(new.labels, data.truth),
        "old_s": old_s,
        "new_s": new_s,
        "old_inner": old.trace.inner_iters_per_outer,
        "new_inner": new.trace.inner_iters_per_outer,
    }


def synth_failures(rows) -> list[str]:
    failures = []
    for r in rows:
        if not r["same"]:
            failures.append(f"{r['cell']}: partition differs")
        if abs(r["rel"]) > SAME_OBJECTIVE_RTOL:
            failures.append(f"{r['cell']}: objective moved by {r['rel']:.2e} relative")
        if r["new_acc"] != 1.0:
            failures.append(f"{r['cell']}: accuracy {r['new_acc']:.3f}")
    return failures


def blob_failures(rows) -> list[str]:
    failures = [
        f"{r['cell']}: objective worse by {r['rel']:.2e} relative"
        for r in rows
        if r["rel"] > WORSE_CELL_RTOL
    ]
    old_sum, new_sum = sum(r["old_obj"] for r in rows), sum(r["new_obj"] for r in rows)
    if new_sum > old_sum:
        failures.append(f"summed objective {new_sum:.6f} > {old_sum:.6f}")
    old_acc = np.mean([r["old_acc"] for r in rows])
    new_acc = np.mean([r["new_acc"] for r in rows])
    if new_acc < old_acc:
        failures.append(f"mean accuracy {new_acc:.4f} < {old_acc:.4f}")
    return failures


def print_rows(rows, markdown: bool) -> None:
    header = [
        "cell", "same", "old obj", "new obj", "rel", "old acc", "new acc",
        "old s", "new s", "old inner", "new inner",
    ]
    if markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
    for r in rows:
        cells = [
            r["cell"],
            "yes" if r["same"] else "no",
            f"{r['old_obj']:.6f}",
            f"{r['new_obj']:.6f}",
            f"{r['rel']:+.1e}",
            f"{r['old_acc']:.3f}",
            f"{r['new_acc']:.3f}",
            f"{r['old_s']:.2f}",
            f"{r['new_s']:.2f}",
            str(r["old_inner"]).replace(" ", ""),
            str(r["new_inner"]).replace(" ", ""),
        ]
        print(("| " + " | ".join(cells) + " |") if markdown else "  ".join(cells), flush=True)
    old_s, new_s = sum(r["old_s"] for r in rows), sum(r["new_s"] for r in rows)
    print(f"total KindAP time {old_s:.1f} -> {new_s:.1f} s over {len(rows)} cells", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("families", nargs="*", help="synth, blobs or both (the default)")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    families = args.families or ["synth", "blobs"]
    if not set(families) <= {"synth", "blobs"}:
        parser.error(f"unknown family in {families}")
    failures = []
    if "synth" in families:
        rows = [
            run_cell(f"k{s.k}_rho{s.rho}_d{s.ambient_dim}_s{s.seed}", generate(s))
            for s in SYNTH_CELLS
        ]
        print_rows(rows, args.markdown)
        failures += synth_failures(rows)
    if "blobs" in families:
        rows = [
            run_cell(f"k{k}_sigma{sigma}_s{seed}", gaussian_blobs(k, sigma, seed))
            for k, sigma, seed in BLOB_CELLS
        ]
        print_rows(rows, args.markdown)
        failures += blob_failures(rows)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
