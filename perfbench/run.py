"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
start with ``#`` and carry the per-layer table and run metadata.  The
workloads and metrics are described in ``perfbench/README.md``.
"""

import argparse
import os
import signal
import sys
from pathlib import Path

# One BLAS/OpenMP thread, set before NumPy loads; the server inherits it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # a terminated run still stops the servers it started (cleanup runs in finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import print_result, run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
