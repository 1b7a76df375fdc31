"""Record the reference outputs the benchmark checks each run against.

    python3 edabench/record_refs.py [--workload NAME ...]

Runs one operation per shipped seed at the sizes in ``workloads.SIZES``
and writes ``edabench/refs/<workload>.json``.  Re-record only when a
change is meant to move the program's outputs, and say so in CHANGES.md;
a change that claims a speed-up must leave every reference matching.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seeds with a recorded reference.  Runs on other seeds still check that
#: every operation of the run produced the same output.
SEEDS = tuple(range(20))
#: Recorded but kept out of tuning: the seed a performance claim is
#: re-checked on after the change was written.
HELD_OUT_SEED = 1009


def main(argv=None) -> int:
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path[1:] if p != ROOT
    ]
    from edabench.harness import REFS_DIR
    from edabench.workloads import WORKLOADS, canonical

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(REFS_DIR, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        seeds = {}
        for seed in SEEDS + (HELD_OUT_SEED,):
            sample = workload.op(workload.setup(seed))
            seeds[str(seed)] = workload.reference(sample.output)
            print(f"{name} seed {seed}: recorded", flush=True)
        doc = {"sizes": workload.sizes, "held_out_seed": HELD_OUT_SEED, "seeds": seeds}
        with open(os.path.join(REFS_DIR, f"{name}.json"), "w") as fh:
            fh.write(canonical(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
