"""Command-line front end: single solves and r-sweep benchmarks.

``galp solve problem.mps`` parses, converts, and solves one problem.
``galp bench corpus/`` solves every MPS file in a directory over a grid of
penalty exponents (default ``R_GRID``) and emits a CSV iteration table plus
a per-r solved-percentage summary.  Each file is read and converted once,
then solved at every r.  Solve times, and each file's read-and-convert time
in a last ``setup`` column, go to a separate CSV so the main table is
byte-reproducible.  Solver options default to ``SolverConfig``'s fields.

Exit codes and cells (``STATUS_TABLE``): Optimal 0 and the iteration count,
IterationLimit 2 and "**", Unbounded 3 and "err", Infeasible 5 and "err",
NumericalFailure 4 and "err".  Any other error exits 4; a file that cannot
be read gets "err".
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys
import time

from .model import InfeasibleBounds, map_back, to_standard_form
from .mps import MpsError, read_mps
from .solver import SolverConfig, Status, TraceRecord, solve

EXIT_OPTIMAL = 0
EXIT_ITERATION_LIMIT = 2
EXIT_UNBOUNDED = 3
EXIT_ERROR = 4
EXIT_INFEASIBLE = 5

# status -> (galp solve exit code, galp bench cell with "{}" for the iteration count)
STATUS_TABLE = {
    Status.OPTIMAL: (EXIT_OPTIMAL, "{}"),
    Status.ITERATION_LIMIT: (EXIT_ITERATION_LIMIT, "**"),
    Status.UNBOUNDED: (EXIT_UNBOUNDED, "err"),
    Status.INFEASIBLE: (EXIT_INFEASIBLE, "err"),
    Status.NUMERICAL_FAILURE: (EXIT_ERROR, "err"),
}
R_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)  # galp bench's default r grid


def _error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_ERROR


def _write_trace(path, trace):
    """One row per TraceRecord, its fields as columns; ints verbatim, other values as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in dataclasses.fields(TraceRecord))
        for rec in trace:
            writer.writerow(
                v if isinstance(v, int) else repr(float(v)) for v in dataclasses.astuple(rec)
            )


def cmd_solve(args) -> int:
    try:
        cfg = SolverConfig(r=args.r, epsilon=args.eps, max_iterations=args.max_iter)
    except ValueError as exc:
        return _error(exc)
    try:
        raw = read_mps(args.path)
        lp, vmap = to_standard_form(raw)
    except (OSError, MpsError, InfeasibleBounds, ValueError) as exc:
        return _error(exc)
    report = solve(lp, cfg, offset=vmap.offset)
    if args.trace:
        try:
            _write_trace(args.trace, report.trace)
        except OSError as exc:
            return _error(exc)
    if not args.quiet:
        print(f"problem:    {raw.name or args.path}")
        print(f"status:     {report.status.value}")
        print(f"objective:  {report.objective_original:.10g}")
        print(f"iterations: {report.iterations}")
        print(f"rf:         {report.rf:.3e}")
        print(f"rgap:       {report.rgap:.3e}")
        if report.status is Status.OPTIMAL and args.print_solution:
            x_orig = map_back(vmap, report.x)
            for name, value in zip(vmap.names, x_orig):
                print(f"  {name} = {value:.10g}")
    return STATUS_TABLE[report.status][0]


def _bench_cell(lp, cfg):
    """The table cell of one solve, and its solve time."""
    start = time.perf_counter()
    report = solve(lp, cfg)
    elapsed = f"{time.perf_counter() - start:.6f}"
    return STATUS_TABLE[report.status][1].format(report.iterations), elapsed


def cmd_bench(args) -> int:
    try:
        grid = [float(tok) for tok in args.r_grid.split(",") if tok.strip() != ""]
        cfgs = [SolverConfig(r=r, epsilon=args.eps, max_iterations=args.max_iter) for r in grid]
        names = sorted(name for name in os.listdir(args.dir) if name.lower().endswith(".mps"))
    except (OSError, ValueError) as exc:
        return _error(exc)
    if not names:
        print(f"warning: no .mps files in {args.dir}", file=sys.stderr)

    header = ["problem"] + [f"r={r:g}" for r in grid]
    rows, time_rows = [], []
    # the destinations are opened before any solve, so a bad path costs none; the
    # timing table is opened first, so its failure leaves no iteration table behind
    try:
        with contextlib.ExitStack() as files:
            timing = files.enter_context(open(args.timing, "w", newline="")) if args.timing else None
            out = files.enter_context(open(args.out, "w", newline="")) if args.out else sys.stdout
            for name in names:
                start = time.perf_counter()
                try:
                    lp, _ = to_standard_form(read_mps(os.path.join(args.dir, name)))
                except (OSError, MpsError, InfeasibleBounds, ValueError):
                    cells = [("err", "")] * len(cfgs)  # nothing was solved, so no time
                    setup = ""
                else:
                    setup = f"{time.perf_counter() - start:.6f}"
                    cells = [_bench_cell(lp, cfg) for cfg in cfgs]
                stem = os.path.splitext(name)[0]
                rows.append([stem] + [cell for cell, _ in cells])
                time_rows.append([stem] + [elapsed for _, elapsed in cells] + [setup])
            for fh, head, table in ((out, header, rows), (timing, header + ["setup"], time_rows)):
                if fh is not None:
                    writer = csv.writer(fh)
                    writer.writerow(head)
                    writer.writerows(table)
    except OSError as exc:
        return _error(exc)

    if names:
        print("solved per r:", file=sys.stderr)
        for j, r in enumerate(grid):
            solved = sum(1 for row in rows if row[1 + j].isdigit())
            print(f"  r={r:g}: {100.0 * solved / len(names):.1f}%", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="galp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="solve a single MPS file")
    pb = sub.add_parser("bench", help="r-sweep over a directory of MPS files")
    default = SolverConfig()
    for p in (ps, pb):
        p.add_argument("--eps", type=float, default=default.epsilon, help="stopping tolerance")
        p.add_argument("--max-iter", type=int, default=default.max_iterations)

    ps.add_argument("path")
    ps.add_argument("--r", type=float, default=default.r, help="penalty exponent in [0, 1)")
    ps.add_argument("--trace", metavar="CSV", help="write the per-iteration trace here")
    ps.add_argument("--quiet", action="store_true")
    ps.add_argument("--print-solution", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pb.add_argument("dir")
    pb.add_argument("--r-grid", default=",".join(f"{r:g}" for r in R_GRID))
    pb.add_argument("--out", metavar="CSV", help="iteration table destination (default stdout)")
    pb.add_argument("--timing", metavar="CSV", help="solve- and set-up-time table destination")
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
