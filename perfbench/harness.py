"""One benchmark run: set up, solve in a closed loop, check, report.

A run sets the workload up (parse and standard form of every file), then
solves every (problem, r) cell in as many whole passes as fit in
``--seconds``, one solve after the other.  The seed fixes each pass's
visiting order.  Timings are per-cell medians over the passes.  Every solve
is checked against its reference optimum after its clock stops.

``--trace 0`` reports the end-to-end metrics.  Between its solves it times a
calibration kernel and sets up again, and it scales every time to the
reference host speed (``calibrate.py``); ``setup_s`` is the median set-up.

``--trace 1`` solves every cell twice, untraced and then with span wrappers
installed, runs ``galp bench`` once in-process, and reports the per-layer
metrics; the untraced twin of each solve gives the tracing overhead.  The full record (the
environment, the deterministic cell table and its hash kept apart from the
timings, every sample, and in traced runs the spans) is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy

import galp
import galp.cli
from calibrate import Calibration
from tracing import Tracer, patched, self_times, totals
from workloads import WORKLOADS, WorkloadError

# Set-ups before the first pass, whose times the traced run uses.  An
# end-to-end run sets up between solves instead, at most once per
# SETUP_INTERVAL_S, so that its set-ups sample the whole run.
SETUP_REPEATS = 3
SETUP_INTERVAL_S = 2.5
TOLERANCE = 1e-6  # |f - f*| <= TOLERANCE * (1 + |f*|), the ROADMAP's acceptance tolerance
P90_MIN_SAMPLES = 100  # at least 10 samples beyond the 90th percentile


@dataclass
class Cell:
    problem: str
    path: str
    r: float
    reference: float | None


@dataclass
class Sample:
    problem: str
    r: float
    seconds: float
    status: str
    iterations: int
    objective: float
    ok: bool
    error: str | None = None


def openblas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed, blas_threads):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads,
        "blas_threads_reported": openblas_threads(),
        "nproc": os.cpu_count(),
        "galp_threads": os.environ.get("GALP_THREADS"),
        "pinned_env": {k: os.environ.get(k) for k in ("PYTHONHASHSEED", "MALLOC_MMAP_THRESHOLD_",
                                                      "MALLOC_TRIM_THRESHOLD_", "OPENBLAS_NUM_THREADS")},
        "seed": seed,
    }


def set_up(wl, read, convert, repeats):
    """Parse and convert every file ``repeats`` times; returns the LPs and each set-up's time."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        lps = {}
        for path in wl.files:
            lp, vmap = convert(read(path))
            lps[path] = (lp, vmap.offset)
        times.append(time.perf_counter() - start)
    return lps, times


def solve_cell(cell, lp, offset, solve):
    """One timed solve; the checks against the reference run after the clock stops."""
    cfg = galp.SolverConfig(r=cell.r)
    start = time.perf_counter()
    try:
        report = solve(lp, cfg, offset=offset)
    except Exception as exc:  # solve documents that it never raises: count it, never drop it
        elapsed = time.perf_counter() - start
        return Sample(cell.problem, cell.r, elapsed, "raised", 0, float("nan"), False,
                      f"{cell.problem} r={cell.r:g}: solve raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start

    def bad(status, iterations, why):
        return Sample(cell.problem, cell.r, elapsed, status, iterations, float("nan"), False,
                      f"{cell.problem} r={cell.r:g}: {why}")

    if not isinstance(report.status, galp.Status):
        return bad(repr(report.status), 0, f"unknown status {report.status!r}")
    status = report.status.value
    if not isinstance(report.iterations, int) or report.iterations < 0:
        return bad(status, 0, f"malformed iteration count {report.iterations!r}")
    if cell.reference is None:
        return bad(status, report.iterations, "no reference optimum")
    f = float(report.objective_original)
    ok = report.status is galp.Status.OPTIMAL and abs(f - cell.reference) <= TOLERANCE * (1.0 + abs(cell.reference))
    return Sample(cell.problem, cell.r, elapsed, status, report.iterations, f, bool(ok))


def run_passes(cells, lps, rng, seconds, solvers, after_cell=None):
    """Whole passes over ``cells`` in seeded order, as many as fit in ``seconds``.

    Each cell is solved once by every function in ``solvers``, back to back,
    so that their timings share the machine's state; one sample list per solver.
    ``after_cell`` runs after each cell, outside the solves' clocks.
    The run stops after the pass that brings it within half a mean pass of
    ``seconds``, so it measures about ``seconds`` and never a partial pass.
    """
    runs, passes = [[] for _ in solvers], 0
    start = time.perf_counter()
    while True:
        for k in rng.permutation(len(cells)):
            cell = cells[k]
            lp, offset = lps[cell.path]
            for samples, solve in zip(runs, solvers):
                samples.append(solve_cell(cell, lp, offset, solve))
            if after_cell is not None:
                after_cell()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / passes) >= seconds:
            return runs, passes


def median_pass(samples):
    """Time of a median pass (s), the sum over cells of each cell's median solve time, and its iterations.

    Per-cell medians keep a burst of host load during one solve out of the
    figure; a cell's iteration count is the same on every pass (``cell_table``).
    """
    by_cell = {}
    for s in samples:
        by_cell.setdefault((s.problem, s.r), []).append(s)
    seconds = sum(statistics.median(s.seconds for s in cell) for cell in by_cell.values())
    return seconds, sum(cell[0].iterations for cell in by_cell.values())


def cell_table(samples):
    """(problem, r) -> (status, iterations, ok) as CSV; a cell that changes between passes is an error."""
    table, errors = {}, []
    for s in samples:
        entry = (s.status, s.iterations, s.ok)
        first = table.setdefault((s.problem, s.r), entry)
        if first != entry:
            errors.append(f"{s.problem} r={s.r:g}: {first} on one pass, {entry} on another")
    rows = [f"{p},{r:g},{st},{it},{int(ok)}" for (p, r), (st, it, ok) in sorted(table.items())]
    return table, "problem,r,status,iterations,ok\n" + "".join(row + "\n" for row in rows), errors


def timings(samples, setup_times, passes):
    """The timing metrics, (value, unit, note), from solve samples and set-up times."""
    ok = [s.seconds for s in samples if s.ok]
    pass_s, pass_iterations = median_pass(samples)
    ok_per_pass = len(ok) / passes
    has_p90 = len(ok) >= P90_MIN_SAMPLES
    return {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "s_per_ok": (pass_s / ok_per_pass if ok else None, "s",
                     f"median pass {pass_s:.3f} s / {ok_per_pass:g} ok solves per pass, {passes} passes"),
        "ok_solve_ms_p50": (1000.0 * statistics.median(ok) if ok else None, "ms", f"n={len(ok)} ok solves"),
        "ms_per_iter": (1000.0 * pass_s / pass_iterations if pass_iterations else None, "ms",
                        f"median pass / {pass_iterations} iterations per pass"),
        "ok_solve_ms_p90": (1000.0 * statistics.quantiles(ok, n=10)[8] if has_p90 else None, "ms",
                            f"n={len(ok)} ok solves" + ("" if has_p90 else f", needs {P90_MIN_SAMPLES}")),
    }


def end_to_end(samples, setup_times, scaled_samples, scaled_setup_times, passes, calibration):
    """(value, unit, note) for the result line's metrics, and for the ones printed only.

    Times in the result line are scaled to the reference host speed
    (``calibrate.py``); the wall times they come from are printed and recorded
    as ``*_wall``.
    """
    ok = sum(1 for s in samples if s.ok)
    optimal = sum(1 for s in samples if s.status == galp.Status.OPTIMAL.value)
    scaled = timings(scaled_samples, scaled_setup_times, passes)
    p90 = scaled.pop("ok_solve_ms_p90")
    metrics = {
        **scaled,
        "ok_frac": (ok / len(samples), "fraction", f"{ok} ok of {len(samples)} solves"),
        "true_optimal_frac": (ok / optimal if optimal else None, "fraction", f"{ok} ok of {optimal} reported Optimal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    }
    wall = timings(samples, setup_times, passes)
    del wall["ok_solve_ms_p90"]
    printed_only = {
        "false_optimal_frac": ((optimal - ok) / optimal if optimal else None, "fraction",
                               f"{optimal - ok} of {optimal} reported Optimal are not ok"),
        "ok_solve_ms_p90": p90,
        **{f"{name}_wall": v for name, v in wall.items()},
        "calibration_ms": (1000.0 * statistics.median(calibration.times), "ms",
                           f"median of {len(calibration.times)} kernel timings; "
                           f"reference {1000.0 * calibration.kernel.reference_s:g} ms"),
    }
    return metrics, printed_only


def per_layer(tracer, iterations, passes, traced_ms, untraced_ms, cli_s, library_s):
    """Per-layer metrics from the spans; ``.self_ms`` is self time per solver iteration."""
    agg = totals(tracer.spans)

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def per_call_ms(name):
        n, incl, _ = agg.get(name, (0, 0.0, 0.0))
        return 1000.0 * incl / n if n else None

    def self_ms(name):
        return 1000.0 * agg.get(name, (0, 0.0, 0.0))[2] / iterations

    def escaped(name, cls=None):
        return sum(v for (n, c), v in tracer.exceptions.items() if n == name and cls in (None, c))

    flops = factor_s = 0.0
    factors = regularized = 0
    for (name, _, _, _, note), own in zip(tracer.spans, self_times(tracer.spans)):
        if name == "linalg.factor" and note is not None:
            m, rho = note
            flops += m**3 / 3.0
            factor_s += own
            factors += 1
            regularized += rho > 0
    return {
        "mps.read_mps.ms": (per_call_ms("mps.read_mps"), "ms"),
        "model.to_standard_form.ms": (per_call_ms("model.to_standard_form"), "ms"),
        "penalty.scaling_diagonals.calls_per_iter": (calls("penalty.scaling_diagonals") / iterations, "calls/iter"),
        "penalty.scaling_diagonals.self_ms": (self_ms("penalty.scaling_diagonals"), "ms/iter"),
        "penalty.not_interior": (escaped("penalty.scaling_diagonals", "NotInterior") / passes, "count/pass"),
        "linalg.assemble_normal.self_ms": (self_ms("linalg.assemble_normal"), "ms/iter"),
        "linalg.factor.self_ms": (self_ms("linalg.factor"), "ms/iter"),
        "linalg.factor.gflops": (flops / factor_s / 1e9 if factor_s else None, "GFLOP/s"),
        "linalg.factor.regularized_frac": (regularized / factors if factors else None, "fraction"),
        "linalg.factor.failed": (escaped("linalg.factor") / passes, "count/pass"),
        "linalg.solve.calls": (calls("linalg.solve") / iterations, "calls/iter"),
        "linalg.solve.self_ms": (self_ms("linalg.solve"), "ms/iter"),
        "directions.feasibility_direction.self_ms": (self_ms("directions.feasibility_direction"), "ms/iter"),
        "directions.descent_direction.self_ms": (self_ms("directions.descent_direction"), "ms/iter"),
        "directions.reproject.self_ms": (self_ms("directions.reproject"), "ms/iter"),
        "directions.reproject.calls_per_iter": (calls("directions.reproject") / iterations, "calls/iter"),
        "directions.max_step.self_ms": (self_ms("directions.max_step"), "ms/iter"),
        "solver.choose_start.ms": (per_call_ms("solver.choose_start"), "ms"),
        "solver.iterate_once.self_ms": (self_ms("solver.iterate_once"), "ms/iter"),
        "solver.factor_per_iter": (calls("linalg.factor") / iterations, "calls/iter"),
        "solver.iterations": (iterations / passes, "iters/pass"),
        "cli.bench.ms": (1000.0 * cli_s, "ms"),
        "cli.bench.overhead_ms": (1000.0 * (cli_s - library_s), "ms"),
        "trace.overhead_ms_per_iter": (traced_ms - untraced_ms, "ms/iter"),
    }


def cli_cell(status, iterations):
    """What ``galp bench`` prints for a solve with this status."""
    if status == galp.Status.OPTIMAL.value:
        return str(iterations)
    return "**" if status == galp.Status.ITERATION_LIMIT.value else "err"


def run_cli_bench(wl, workdir, table):
    """One in-process ``galp bench`` over the workload; its table must agree with ``table``."""
    out_csv = os.path.join(workdir, "cli_table.csv")
    argv = ["bench", wl.directory, "--r-grid", ",".join(f"{r:g}" for r in wl.r_grid), "--out", out_csv]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = galp.cli.main(argv)
    elapsed = time.perf_counter() - start
    errors = [] if code == 0 else [f"galp bench exited with {code}"]
    with open(out_csv) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    if len(rows) != len(wl.files):
        errors.append(f"galp bench listed {len(rows)} problems, the workload has {len(wl.files)}")
    for problem, *cells in rows:
        if len(cells) != len(wl.r_grid):
            errors.append(f"galp bench row {problem} has {len(cells)} cells for {len(wl.r_grid)} values of r")
        for r, got in zip(wl.r_grid, cells):
            status, iterations, _ = table.get((problem, r), ("missing", 0, False))
            if got != cli_cell(status, iterations):
                errors.append(f"galp bench cell {problem} r={r:g} is {got!r}, "
                              f"the library solve gave {cli_cell(status, iterations)!r}")
    return elapsed, errors


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def ms_per_iter(samples):
    pass_s, pass_iterations = median_pass(samples)
    return 1000.0 * pass_s / max(pass_iterations, 1)


def traced_solver(tracer):
    """galp.solve inside a root span, with the wrappers installed for the call only."""
    wrapped = tracer.wrap(galp.solve, "solver.solve")

    def solve(*args, **kwargs):
        with patched(tracer):
            return wrapped(*args, **kwargs)

    return solve


def measure_end_to_end(wl, cells, lps, rng, seconds, read, convert):
    """Solves with the calibration kernel and set-ups interleaved, off the solves' clocks.

    Each solve and each set-up is scaled by the kernel calls on either side
    of it (``Calibration.scale_at``), so that it is compared with the host's
    speed at that moment.
    """
    calibration = Calibration(wl.kernel)
    solve_marks, setups, last_setup = [], [], None

    def between_solves():
        nonlocal last_setup
        solve_marks.append(len(calibration.times))
        calibration.maybe_measure()
        if last_setup is None or time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
            setups.append((set_up(wl, read, convert, 1)[1][0], len(calibration.times)))
            last_setup = time.perf_counter()

    before = resource.getrusage(resource.RUSAGE_SELF)
    (samples,), passes = run_passes(cells, lps, rng, seconds, [galp.solve], after_cell=between_solves)
    after = resource.getrusage(resource.RUSAGE_SELF)
    table, table_csv, errors = cell_table(samples)
    scaled = [replace(s, seconds=s.seconds * calibration.scale_at(k)) for s, k in zip(samples, solve_marks)]
    setup_times = [t for t, _ in setups]
    scaled_setup_times = [t * calibration.scale_at(k) for t, k in setups]
    shown, printed_only = end_to_end(samples, setup_times, scaled, scaled_setup_times, passes, calibration)
    cpu = {"user_s": after.ru_utime - before.ru_utime, "sys_s": after.ru_stime - before.ru_stime,
           "minor_faults": after.ru_minflt - before.ru_minflt}
    extra = {"passes": passes, "passes_cpu": cpu, "setup_times": setup_times, "calibration_s": calibration.times}
    return samples, table_csv, errors, shown, printed_only, extra


def measure_per_layer(wl, cells, lps, rng, seconds, tracer, setup_times, workdir, spans_path):
    (plain, traced), passes = run_passes(cells, lps, rng, seconds, [galp.solve, traced_solver(tracer)])
    table, table_csv, errors = cell_table(plain + traced)
    cli_s, cli_errors = run_cli_bench(wl, workdir, table)
    library_s = median_pass(plain)[0] + statistics.median(setup_times)
    layer = per_layer(tracer, sum(s.iterations for s in traced), passes, ms_per_iter(traced), ms_per_iter(plain),
                      cli_s, library_s)
    tracer.write(spans_path)
    extra = {
        "passes": passes,
        "spans_file": os.path.basename(spans_path),
        "span_totals_s": {k: {"calls": n, "inclusive": incl, "self": own}
                          for k, (n, incl, own) in sorted(totals(tracer.spans).items())},
        "exceptions": {f"{n}:{c}": v for (n, c), v in sorted(tracer.exceptions.items())},
    }
    shown = {name: (value, unit, "") for name, (value, unit) in layer.items()}
    return plain + traced, table_csv, errors + cli_errors, shown, {}, extra


def run(args, root, blas_threads) -> int:
    out_dir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    read, convert = galp.read_mps, galp.to_standard_form
    if tracer:
        read, convert = tracer.wrap(read, "mps.read_mps"), tracer.wrap(convert, "model.to_standard_form")
    os.makedirs(out_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](root, workdir)
        inputs = {wl.problem(p): file_sha256(p) for p in wl.files}
        lps, setup_times = set_up(wl, read, convert, SETUP_REPEATS)
        cells = [Cell(wl.problem(p), p, r, wl.references.get(wl.problem(p))) for p in wl.files for r in wl.r_grid]

        # warm lazy imports and caches with a capped solve outside every timed region
        lp, offset = lps[cells[0].path]
        galp.solve(lp, galp.SolverConfig(r=cells[0].r, max_iterations=2), offset=offset)

        rng = np.random.default_rng(args.seed)
        if args.trace:
            os.makedirs(workdir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-spans.csv.gz")
            measured = measure_per_layer(wl, cells, lps, rng, args.seconds, tracer, setup_times, workdir, spans_path)
        else:
            measured = measure_end_to_end(wl, cells, lps, rng, args.seconds, read, convert)
    except (OSError, galp.MpsError, galp.InfeasibleBounds, WorkloadError) as exc:
        print(f"error: workload {args.workload} could not be run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # only succeeds once no other run uses it
            os.rmdir(os.path.dirname(workdir))
    samples, table_csv, errors, shown, printed_only, extra = measured

    errors = [s.error for s in samples if s.error] + errors
    errors += [f"metric {name} could not be computed" for name, (v, _, _) in shown.items() if v is None]
    metrics = {**shown, **printed_only}
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, blas_threads),
        "inputs_sha256": inputs,
        "deterministic": {"cells": table_csv, "sha256": hashlib.sha256(table_csv.encode()).hexdigest()},
        "timing": {
            "setup_s": extra.pop("setup_times", setup_times),
            "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        },
        **extra,
        "errors": errors,
        "samples": [asdict(s) for s in samples],
    }
    with open(os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  cells {len(cells)}  "
          f"passes {extra['passes']}  solves {len(samples)}")
    env = record["environment"]
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']} "
          f"threads {env['blas_threads_reported']}  nproc {env['nproc']}")
    print(f"cell table sha256 {record['deterministic']['sha256']}")
    for name, (value, unit, note) in metrics.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {text:>12s} {unit:10s} {note}")
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    if len(errors) > 20:
        print(f"error: ... and {len(errors) - 20} more", file=sys.stderr)

    print(json.dumps({
        "correct": not errors,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.error),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in shown.items() if v is not None},
    }))
    return 0 if not errors else 1
