"""Benchmark runner for refdiff.

    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and benchmarks the package under
``src/`` (never an installed copy).  One run sets the workload up five
times (``setup_s`` is the median), then repeats the workload's operation
in a closed loop with one caller until ``--seconds`` have passed, with at
least two operations, and checks that every operation's outputs are
correct and bit-identical.  ``--workload all`` runs every workload in
this one process.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` operations alternate between untraced and traced, the
traced ones record a span at every wrapped refdiff function, and the
result holds the per-layer metrics.  Stdout gets one JSON line of
provenance and extra figures per workload, then the result as the last
line: ``{"correct", "attempted", "failed", "metrics"}``.  The same
documents, and the spans of a traced run, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pinned before numpy is first imported; BLAS reads these once, at load.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "sample", "sample24", "prep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark refdiff from a source checkout.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured wall time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_refdiff():
    """Import refdiff from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import refdiff
    except ImportError as exc:
        print(f"cannot import refdiff from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(refdiff.__file__).resolve().is_relative_to(src):
        print(f"refdiff resolves to {refdiff.__file__}, outside {src}", file=sys.stderr)
        return None
    return refdiff


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if import_refdiff() is None:
        return 2
    import harness

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    harness.main(ROOT, names, args.seed, args.seconds, bool(args.trace), BLAS_THREAD_VARS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
