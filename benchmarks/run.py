#!/usr/bin/env python3
"""Benchmark of tensorconv, run from the root of a source checkout.

    python3 benchmarks/run.py --workload column3d --seed 1 --seconds 12 --trace 0

Builds the workload's inputs from ``--seed``, runs whole rounds of its
operations for about ``--seconds`` seconds, checks every output against a
computation made apart from the program, and prints each metric as
``name=value unit`` followed, on the last line, by one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: half the time runs untraced, half with every
layer boundary wrapped by ``tracing.Tracer``, and the spans are written to
``benchmarks/_out/``. ``--smoke`` runs the same operations and checks at toy
sizes. See README.md in this directory for the workloads and metrics.

The program is imported from ``src/`` of the checkout and nowhere else; the
run exits with code 2 and prints no result when it is not there.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# BLAS threads are fixed before numpy loads: one per processor the run may use.
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS


def _import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import tensorconv
    except ImportError as exc:
        print(f"error: cannot import tensorconv from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(tensorconv.__file__).resolve().is_relative_to(src):
        print(f"error: tensorconv was imported from {tensorconv.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("column3d", "compress", "cli2d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    _import_program()
    import harness

    return harness.run(args, BENCH_DIR / "_out", THREADS)


if __name__ == "__main__":
    sys.exit(main())
