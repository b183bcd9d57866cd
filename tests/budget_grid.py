"""KindAP's shipped inner-phase budget and outer cap against two reference rules.

Runs `kindap_solve` three times per cell:

- `full`: `INNER_BUDGET` raised to `max_inner` and `max_outer` 50, so every
  phase runs until `tol_inner` or `max_inner` (the rule
  `tests/test_kindap.py` gates against `reference_kindap_solve`);
- `b20`: `INNER_BUDGET` 20 and `max_outer` 50, the growing budget as it
  was first shipped (a phase after a stalled, budget-cut phase resumes it,
  as in the shipped rule);
- `new`: as shipped (`kindap.INNER_BUDGET` and `KindapParams().max_outer`).

Prints one row per cell, then per family a summary line with each rule's
total KindAP time, inner iterations and phases, and exits 1 when a gate
fails:

- `synth`: 81 `SynthSpec` cells where every partition is recoverable. Against
  both references: the same partition, the truth (accuracy 1.000), and kind
  objectives within 1e-12 relative.
- `large`: the same gates on k = 200 (n = 8,000, d = 300, rho 0.33) and
  k = 400 (n = 16,000, d = 500, rho 0.33 and 0.66), and on the benchmark's
  data, `large_n` (k = 50, n = 100,000) and both `many_k` datasets (k = 100,
  rho 0.33 and 0.66), rows in the generator's order.
- `blobs`: 27 `gaussian_blobs` cells (d = k; k 20, 50, 100; sigma 0.25,
  0.35, 0.45; seeds 0-2), where KindAP and k-means miss. Any change of
  trajectory can end in another local minimum, so the gate is on the family:
  against each reference the summed kind objective and the mean accuracy
  must be no worse, and no cell's objective worse by more than 1e-4
  relative. No cell may reach the outer cap: a solve that runs `max_outer`
  phases has run out of restarts, and reports `outer_stop_reason` "cap"
  unless its last phase reached the objective floor.

With `--sweep`, the shipped rule is replaced by every (budget, `max_outer`)
pair of {3, 5, 10} x {50, 100, 200}, each against the same references, and
the script prints one summary row per pair (exit status 0) instead of one
row per cell.

Usage: ``PYTHONPATH=src python tests/budget_grid.py [synth|large|blobs ...]
[--markdown] [--sweep]`` (all families by default; about 6 minutes on
2 cores, the `full` reference most of it, and about 16 with `--sweep`).
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
LARGE_CELLS = [
    ("k200_rho0.33", SynthSpec(k=200, rho=0.33)),
    ("k400_rho0.33", SynthSpec(k=400, rho=0.33, ambient_dim=500)),
    ("k400_rho0.66", SynthSpec(k=400, rho=0.66, ambient_dim=500)),
    ("large_n", SynthSpec(k=50, per_cluster=2000, rho=0.66)),
    ("many_k_rho0.33", SynthSpec(k=100, rho=0.33)),
    ("many_k_rho0.66", SynthSpec(k=100, rho=0.66)),
]
BLOB_CELLS = [
    (k, sigma, seed) for k in (20, 50, 100) for sigma in (0.25, 0.35, 0.45) for seed in (0, 1, 2)
]
FAMILIES = ("synth", "large", "blobs")
# (INNER_BUDGET, max_outer) of the references.
REFERENCES = {"full": (KindapParams().max_inner, 50), "b20": (20, 50)}
SHIPPED = (kindap.INNER_BUDGET, KindapParams().max_outer)
SWEEP = [(budget, max_outer) for budget in (3, 5, 10) for max_outer in (50, 100, 200)]
SAME_OBJECTIVE_RTOL = 1e-12
WORSE_CELL_RTOL = 1e-4


def family_cells(family: str):
    """(name, dataset) pairs of a family, each dataset generated when reached."""
    if family == "synth":
        for s in SYNTH_CELLS:
            yield f"k{s.k}_rho{s.rho}_d{s.ambient_dim}_s{s.seed}", generate(s)
    elif family == "large":
        for name, spec in LARGE_CELLS:
            yield name, generate(spec)
    else:
        for k, sigma, seed in BLOB_CELLS:
            yield f"k{k}_sigma{sigma}_s{seed}", gaussian_blobs(k, sigma, seed)


def solve(data, budget: int, max_outer: int) -> dict:
    """One solve under a (budget, max_outer) rule, kept as the numbers the gates read."""
    with mock.patch.object(kindap, "INNER_BUDGET", budget):
        started = time.perf_counter()
        result = kindap_solve(data.embedded, KindapParams(max_outer=max_outer))
        seconds = time.perf_counter() - started
    return {
        "labels": result.labels,
        "obj": result.kind_objective,
        "acc": accuracy(result.labels, data.truth),
        "s": seconds,
        "inner": result.trace.inner_iters_per_outer,
        "stop": result.trace.outer_stop_reason,
        "capped": result.trace.outer_iters == max_outer,
    }


def compare(name: str, new: dict, refs: dict) -> dict:
    row = {"cell": name, "new": new, "refs": refs}
    for ref_name, ref in refs.items():
        row["same_" + ref_name] = accuracy(new["labels"], ref["labels"]) == 1.0
        row["rel_" + ref_name] = (new["obj"] - ref["obj"]) / max(ref["obj"], 1e-300)
    return row


def recoverable_failures(rows) -> list[str]:
    failures = []
    for r in rows:
        for ref_name in REFERENCES:
            if not r["same_" + ref_name]:
                failures.append(f"{r['cell']}: partition differs from {ref_name}")
            if abs(r["rel_" + ref_name]) > SAME_OBJECTIVE_RTOL:
                rel = r["rel_" + ref_name]
                failures.append(f"{r['cell']}: objective moved by {rel:.2e} relative to {ref_name}")
        if r["new"]["acc"] != 1.0:
            failures.append(f"{r['cell']}: accuracy {r['new']['acc']:.3f}")
    return failures


def blob_failures(rows) -> list[str]:
    failures = [f"{r['cell']}: reaches the outer cap" for r in rows if r["new"]["capped"]]
    new_sum = sum(r["new"]["obj"] for r in rows)
    new_acc = np.mean([r["new"]["acc"] for r in rows])
    for ref_name in REFERENCES:
        failures += [
            f"{r['cell']}: objective worse than {ref_name} by {r['rel_' + ref_name]:.2e} relative"
            for r in rows
            if r["rel_" + ref_name] > WORSE_CELL_RTOL
        ]
        ref_sum = sum(r["refs"][ref_name]["obj"] for r in rows)
        if new_sum > ref_sum:
            failures.append(f"summed objective {new_sum:.6f} > {ref_name} {ref_sum:.6f}")
        ref_acc = np.mean([r["refs"][ref_name]["acc"] for r in rows])
        if new_acc < ref_acc:
            failures.append(f"mean accuracy {new_acc:.4f} < {ref_name} {ref_acc:.4f}")
    return failures


def failures_of(family: str, rows) -> list[str]:
    return blob_failures(rows) if family == "blobs" else recoverable_failures(rows)


def _counts(inner) -> str:
    return str(inner).replace(" ", "")


def _print_table(header, lines, markdown: bool) -> None:
    if markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
    else:
        print("  ".join(header))
    for cells in lines:
        print(("| " + " | ".join(cells) + " |") if markdown else "  ".join(cells), flush=True)


def print_rows(rows, markdown: bool) -> None:
    header = [
        "cell", "same full/b20", "full obj", "b20 obj", "new obj", "rel full", "rel b20",
        "acc full/b20/new", "s full/b20/new", "full inner", "b20 inner", "new inner", "new outer stop",
    ]
    lines = []
    for r in rows:
        full, b20, new = r["refs"]["full"], r["refs"]["b20"], r["new"]
        lines.append([
            r["cell"],
            "/".join("yes" if r["same_" + name] else "no" for name in REFERENCES),
            f"{full['obj']:.6f}",
            f"{b20['obj']:.6f}",
            f"{new['obj']:.6f}",
            f"{r['rel_full']:+.1e}",
            f"{r['rel_b20']:+.1e}",
            "/".join(f"{x['acc']:.3f}" for x in (full, b20, new)),
            "/".join(f"{x['s']:.2f}" for x in (full, b20, new)),
            _counts(full["inner"]),
            _counts(b20["inner"]),
            _counts(new["inner"]),
            new["stop"] + (" (at the cap)" if new["capped"] else ""),
        ])
    _print_table(header, lines, markdown)
    solves = {name: [r["refs"][name] for r in rows] for name in REFERENCES}
    solves["new"] = [r["new"] for r in rows]
    seconds = ", ".join(f"{name} {sum(x['s'] for x in runs):.1f} s" for name, runs in solves.items())
    iters = ", ".join(f"{name} {sum(sum(x['inner']) for x in runs):,}" for name, runs in solves.items())
    phases = ", ".join(f"{name} {sum(len(x['inner']) for x in runs):,}" for name, runs in solves.items())
    print(
        f"over {len(rows)} cells: KindAP time {seconds}; inner iterations {iters}; phases {phases}",
        flush=True,
    )


def print_sweep(rows_by_rule: dict, families, markdown: bool) -> None:
    header = ["budget", "max_outer"]
    for family in families:
        if family == "blobs":
            header += ["blobs obj sum", "blobs mean acc", "blobs worst rel b20", "blobs at cap"]
        else:
            header += [f"{family} same"]
        header += [f"{family} s"]
    header += ["gate failures"]
    lines = []
    for (budget, max_outer), by_family in rows_by_rule.items():
        cells = [str(budget), str(max_outer)]
        failures = 0
        for family in families:
            rows = by_family[family]
            failures += len(failures_of(family, rows))
            if family == "blobs":
                cells += [
                    f"{sum(r['new']['obj'] for r in rows):.6f}",
                    f"{np.mean([r['new']['acc'] for r in rows]):.4f}",
                    f"{max(r['rel_b20'] for r in rows):+.1e}",
                    str(sum(r["new"]["capped"] for r in rows)),
                ]
            else:
                same = sum(all(r["same_" + name] for name in REFERENCES) for r in rows)
                cells += [f"{same}/{len(rows)}"]
            cells += [f"{sum(r['new']['s'] for r in rows):.1f}"]
        lines.append(cells + [str(failures)])
    for ref_name, (budget, max_outer) in REFERENCES.items():
        cells = [f"{budget} ({ref_name})", str(max_outer)]
        for family in families:
            rows = next(iter(rows_by_rule.values()))[family]
            refs = [r["refs"][ref_name] for r in rows]
            if family == "blobs":
                cells += [
                    f"{sum(x['obj'] for x in refs):.6f}",
                    f"{np.mean([x['acc'] for x in refs]):.4f}",
                    "",
                    str(sum(x["capped"] for x in refs)),
                ]
            else:
                cells += [""]
            cells += [f"{sum(x['s'] for x in refs):.1f}"]
        lines.append(cells + [""])
    _print_table(header, lines, markdown)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("families", nargs="*", help=f"any of {', '.join(FAMILIES)} (all by default)")
    parser.add_argument("--markdown", action="store_true")
    parser.add_argument("--sweep", action="store_true", help="one summary row per (budget, max_outer)")
    args = parser.parse_args(argv)
    families = args.families or list(FAMILIES)
    if not set(families) <= set(FAMILIES):
        parser.error(f"unknown family in {families}")
    rules = SWEEP if args.sweep else [SHIPPED]
    rows_by_rule = {rule: {family: [] for family in families} for rule in rules}
    for family in families:
        for name, data in family_cells(family):
            refs = {ref_name: solve(data, *rule) for ref_name, rule in REFERENCES.items()}
            for rule in rules:
                rows_by_rule[rule][family].append(compare(name, solve(data, *rule), refs))
            if args.sweep:
                print(f"{family} {name} done", file=sys.stderr, flush=True)
        if not args.sweep:
            print_rows(rows_by_rule[SHIPPED][family], args.markdown)
    if args.sweep:
        print_sweep(rows_by_rule, families, args.markdown)
        return 0
    failures = [f for family in families for f in failures_of(family, rows_by_rule[SHIPPED][family])]
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
