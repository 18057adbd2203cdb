"""Benchmark of the trajcalc pipeline.

    python3 perfbench/run.py --workload exp1 --seed 1 --seconds 20 --trace 0

Runs one workload (``exp1``, ``exp2-dense`` or ``relations``) in a fresh
single-threaded interpreter and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Run
it from the root of a checkout; it measures that checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("exp1", "exp2-dense", "relations")
TIMEOUT_S = 170

# one thread for numpy's BLAS and OpenMP pools, a fixed string hash
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24, help="time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "trajcalc" / "__init__.py").is_file():
        print(f"perfbench: no trajcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(CHILD_ENV)
    command = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the {args.workload} run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"perfbench: the {args.workload} run exited with {child.returncode}", file=sys.stderr)
        return 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"perfbench: the {args.workload} run printed no result", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
