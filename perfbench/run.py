#!/usr/bin/env python3
"""galp's benchmark: closed-loop r-sweeps over fixed LP panels.

Run from the root of a galp checkout:

    python3 perfbench/run.py --workload netlib-sweep --seed 1 --seconds 20 --trace 0

Workloads: netlib-sweep, sparse-large, box-heavy (see README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 0 means every
solve's output was well-formed and checked against its reference; 1 means
some were not (they are still counted); 2 means the workload could not be
set up at all, for instance because ``src/galp`` is missing.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = 1
# galp allocates and frees multi-MB temporaries on every iteration.  glibc's
# adaptive thresholds decide whether that memory goes back to the kernel and
# is faulted in again, and the decision depends on allocation history: on
# sparse-large, runs fell into two modes, 0.69M or 1.59M minor faults per
# pass (about 17 or 24 ms per iteration), flipped by string-hash order and by
# the visiting order.  Static thresholds keep freed memory in the process, so
# every run pays the compute and none of the history-dependent faults; the
# hash seed is fixed as well so that a run's allocation sequence repeats.
PINNED = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # glibc's largest; setting it disables adaptation
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "galp", "__init__.py")):
        print(f"error: galp sources not found at {os.path.join(src, 'galp')}; "
              "run the benchmark from the root of a full galp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import harness

    return harness.run(args, ROOT, BLAS_THREADS)


if __name__ == "__main__":
    if "GALP_THREADS" in os.environ or any(os.environ.get(k) != v for k, v in PINNED.items()):
        # the hash seed and malloc settings are read only at process start: replace this process
        env = {k: v for k, v in os.environ.items() if k != "GALP_THREADS"}
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], {**env, **PINNED})
    sys.exit(main())
