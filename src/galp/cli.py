"""Command-line front end: single solves and r-sweep benchmarks.

``galp solve problem.mps`` parses, converts, and solves one problem.
``galp bench corpus/`` solves every MPS file in a directory over a grid of
penalty exponents and emits a CSV iteration table (cells: iteration count,
"**" for the iteration cap, "err" for parse/numeric failures) plus a per-r
solved-percentage summary.  Wall times go to a separate CSV so the main
table is byte-reproducible.

Exit codes: 0 Optimal, 2 IterationLimit, 3 Unbounded, 4 parse/numeric error.
"""

from __future__ import annotations

import argparse
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

_STATUS_EXIT = {
    Status.OPTIMAL: EXIT_OPTIMAL,
    Status.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
    Status.UNBOUNDED: EXIT_UNBOUNDED,
    Status.NUMERICAL_FAILURE: EXIT_ERROR,
}


def _error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_ERROR


def _solve_file(path, cfg):
    raw = read_mps(path)
    lp, vmap = to_standard_form(raw)
    return solve(lp, cfg, offset=vmap.offset), lp, vmap, raw


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
        report, lp, vmap, raw = _solve_file(args.path, cfg)
    except (OSError, MpsError, InfeasibleBounds) as exc:
        return _error(exc)
    if args.trace:
        _write_trace(args.trace, report.trace)
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
    return _STATUS_EXIT[report.status]


def _bench_cell(path, cfg):
    start = time.perf_counter()
    try:
        report, _, _, _ = _solve_file(path, cfg)
    except (OSError, MpsError, InfeasibleBounds):
        return "err", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if report.status is Status.OPTIMAL:
        return str(report.iterations), elapsed
    if report.status is Status.ITERATION_LIMIT:
        return "**", elapsed
    return "err", elapsed


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
    for name in names:
        cells = [_bench_cell(os.path.join(args.dir, name), cfg) for cfg in cfgs]
        stem = os.path.splitext(name)[0]
        rows.append([stem] + [cell for cell, _ in cells])
        time_rows.append([stem] + [f"{elapsed:.6f}" for _, elapsed in cells])

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()

    if args.timing:
        with open(args.timing, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(time_rows)

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
    ps.add_argument("path")
    ps.add_argument("--r", type=float, default=0.2, help="penalty exponent in [0, 1)")
    ps.add_argument("--eps", type=float, default=1e-8, help="stopping tolerance")
    ps.add_argument("--max-iter", type=int, default=300)
    ps.add_argument("--trace", metavar="CSV", help="write the per-iteration trace here")
    ps.add_argument("--quiet", action="store_true")
    ps.add_argument("--print-solution", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="r-sweep over a directory of MPS files")
    pb.add_argument("dir")
    pb.add_argument("--r-grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7")
    pb.add_argument("--eps", type=float, default=1e-8)
    pb.add_argument("--max-iter", type=int, default=300)
    pb.add_argument("--out", metavar="CSV", help="iteration table destination (default stdout)")
    pb.add_argument("--timing", metavar="CSV", help="wall-time table destination")
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
