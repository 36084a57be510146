"""Benchmark entry point: one workload, one single-threaded process.

    python3 perfbench/run.py --workload dynamic_harm_n2 --seed 1 --seconds 20 --trace 0

Builds the workload (the timed set-up), runs its ops back to back in a
closed loop for about --seconds of op time, checks every op's output, and
prints a run record line followed by the result as the last line of
standard output.  With --trace 1 it prints the per-layer metrics instead of
the end-to-end ones.  It exits non-zero without a result when the package
source is missing from the checkout.
"""

import time

PROCESS_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bootstrap() -> None:
    """Import bandshare from this checkout's source tree, or exit 2."""
    # single-threaded closed loop: keep OpenBLAS from starting its own threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import bandshare
    except ImportError as exc:
        print(f"error: cannot import bandshare from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    origin = os.path.realpath(bandshare.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        print(f"error: bandshare imported from {origin}, not from {src}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    bootstrap()
    import bench

    sys.exit(bench.main(sys.argv[1:], PROCESS_START))
