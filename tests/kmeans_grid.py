"""Lockstep k-means++ against the one-run-at-a-time reference, at large k.

For each cell, spawns the KM10 streams of `kindicators bench` (ten streams
from the cell's `stable_cell_seed`) and seeds the cell's embedding three ways:

- `lockstep`: one `kmeans_pp_init` call with all ten generators;
- `single`: ten `kmeans_pp_init` calls with one generator each;
- `reference`: `oracles.reference_kmeans_pp_init` once per generator (three
  n x d passes per center).

Prints one row per cell, with the lockstep time against the ten one-stream
calls, and exits 1 when the centers of any run differ from the reference's
bit for bit, or any generator ends in another state.

Cells: `SynthSpec(per_cluster=40)` at k = 100, 200 and 400 (d = 300, 300 and
500; n = 4,000, 8,000 and 16,000), rho 0.33 and 0.66: the large-k cells of
ROADMAP item 9's ladder.

Usage: ``PYTHONPATH=src python tests/kmeans_grid.py [--markdown]`` (about
7 minutes on 2 cores, the reference most of it).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from budget_grid import _print_table
from kindicators.baselines import kmeans_pp_init
from kindicators.cli import stable_cell_seed
from kindicators.synthgen import SynthSpec, generate
from oracles import reference_kmeans_pp_init

REPLICATIONS = 10
CELLS = [
    SynthSpec(k=k, rho=rho, per_cluster=40, ambient_dim=d)
    for k, d in ((100, 300), (200, 300), (400, 500))
    for rho in (0.33, 0.66)
]


def _generators(spec: SynthSpec) -> list[np.random.Generator]:
    seed = stable_cell_seed(spec.seed, spec.k, spec.rho, "kmeans", 0)
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(REPLICATIONS)]


def _timed(f):
    started = time.perf_counter()
    out = f()
    return out, time.perf_counter() - started


def run_cell(spec: SynthSpec) -> dict:
    x = generate(spec).embedded.matrix
    k = spec.k
    rngs = {side: _generators(spec) for side in ("lockstep", "single", "reference")}
    lockstep, lockstep_s = _timed(lambda: kmeans_pp_init(x, k, rngs["lockstep"]))
    single, single_s = _timed(lambda: [kmeans_pp_init(x, k, [r])[0] for r in rngs["single"]])
    reference, reference_s = _timed(
        lambda: [reference_kmeans_pp_init(x, k, r) for r in rngs["reference"]]
    )
    states = [[r.bit_generator.state for r in rngs[side]] for side in rngs]
    same = all(
        np.array_equal(lockstep[r], reference[r]) and np.array_equal(single[r], reference[r])
        for r in range(REPLICATIONS)
    )
    return {
        "cell": f"k{k}_rho{spec.rho}_d{spec.ambient_dim}",
        "n": x.shape[0],
        "lockstep_s": lockstep_s,
        "single_s": single_s,
        "reference_s": reference_s,
        "same": same and states[0] == states[1] == states[2],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    rows = []
    for spec in CELLS:
        rows.append(run_cell(spec))
        print(f"{rows[-1]['cell']} done", file=sys.stderr, flush=True)
    header = ["cell", "n", "lockstep s", "10 one-stream s", "ratio", "reference s", "identical"]
    lines = [
        [
            row["cell"],
            str(row["n"]),
            f"{row['lockstep_s']:.3f}",
            f"{row['single_s']:.3f}",
            f"{row['lockstep_s'] / row['single_s']:.2f}",
            f"{row['reference_s']:.2f}",
            "yes" if row["same"] else "NO",
        ]
        for row in rows
    ]
    _print_table(header, lines, args.markdown)
    failures = [row["cell"] for row in rows if not row["same"]]
    for cell in failures:
        print("FAIL", cell, "centers or generator states differ from the reference")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
