"""Benchmark entry point: runs each workload in its own process.

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1      # every workload of BENCHMARK.json in turn

Run it from the root of a source checkout; the package is imported from
``src``, nothing is installed. The workload process gets a pinned BLAS thread
count (ROADMAP item 5: floating-point bits differ across thread counts), so
every run of every workload does the same arithmetic. Its standard output,
passed through unchanged, ends with the report line and the result line
described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed BLAS thread count, capped at the processors this process may use.
BLAS_THREADS = 2
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s, including the grace period for stopping the workload.
TIMEOUT_S = 165
GRACE_S = 10


def run_workload(argv: list[str], env: dict) -> int:
    command = [sys.executable, str(Path(__file__).with_name("workload.py")), *argv]
    proc = subprocess.Popen(command, env=env, cwd=ROOT)
    # Pass a termination request on, so the workload removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        proc.terminate()
        try:
            proc.wait(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        return 1


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "kindicators" / "__init__.py").is_file():
        print(f"perfbench: no src/kindicators package under {ROOT}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: str(threads) for name in THREAD_VARIABLES})
    if "--workload" in argv:
        return run_workload(argv, env)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    codes = [run_workload(["--workload", w["name"], *argv], env) for w in config["workloads"]]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
