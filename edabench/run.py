"""Benchmark entry point; run from the repository root.

    python3 edabench/run.py --workload characterize --seed 0 --seconds 20 --trace 0

Prints a report, then as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics).  Exits 1 when an output does not
match its reference or a check fails, and 2 when the program's sources
are missing.
"""

import os

# Pin BLAS to one thread before anything imports numpy, so GCN timings
# measure the program and not the thread scheduler on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, "edabench-traces")
WORKLOAD_NAMES = ("characterize", "predict", "service", "fleet")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Import the benchmark as a package: the script's own directory would
    # otherwise shadow standard modules with the benchmark's file names.
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path[1:] if p != ROOT]

    from edabench.yardstick import Stopwatch

    watch = Stopwatch()
    from edabench import harness  # imports the program

    import_s, import_host = watch.lap()
    out = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        import_s=import_s, import_host=import_host,
        trace_dir=TRACE_DIR if args.trace else None,
    )
    for line in out["lines"]:
        print(line)
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
