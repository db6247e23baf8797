import csv
import dataclasses
import importlib.metadata
import io
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import galp.cli
from galp.cli import main
from galp.solver import SolverConfig, Status, TraceRecord

from conftest import DATA, NETLIB
from families import NAMED
from harness import cli_cell  # perfbench/harness.py; see tests/families.py

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = """NAME T
ROWS
 N  COST
 E  R1
COLUMNS
    X1  COST  1.0  R1  1.0
    X2  R1  1.0
RHS
    RHS  R1  1.0
ENDATA
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_afiro(capsys):
    assert main(["solve", str(NAMED["afiro"].path), "--r", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "status:     Optimal" in out
    assert "-464.753" in out


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/problem.mps"]) == 4
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.mps"
    bad.write_text("NAME X\nGARBAGE\nENDATA\n")
    assert main(["solve", str(bad)]) == 4
    assert "error:" in capsys.readouterr().err


def test_solve_iteration_limit_exit_code(tmp_path, capsys):
    p = tmp_path / "tiny.mps"
    p.write_text(TINY)
    assert main(["solve", str(p), "--max-iter", "1", "--quiet"]) == 2


def test_solve_quiet_suppresses_output(tmp_path, capsys):
    p = tmp_path / "tiny.mps"
    p.write_text(TINY)
    assert main(["solve", str(p), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_solve_print_solution(tmp_path, capsys):
    p = tmp_path / "tiny.mps"
    p.write_text(TINY)
    assert main(["solve", str(p), "--print-solution"]) == 0
    out = capsys.readouterr().out
    assert "X1 = " in out
    assert "X2 = " in out


# One variable of each kind the standard form maps back: X1 direct (0 <= X1),
# X2 shifted (1 <= X2 <= 4), X3 negated (X3 <= 3), X4 split (free) and X5
# fixed (= 2); R1 is an E row ranged to [6, 8].
FIVE_KINDS = """NAME FIVEKINDS
ROWS
 N  COST
 E  R1
 L  R2
 G  R3
COLUMNS
    X1  COST  1.0  R1  1.0
    X1  R2  1.0
    X2  COST  2.0  R1  1.0
    X3  COST  -1.0  R1  1.0
    X3  R2  -1.0  R3  1.0
    X4  COST  0.5  R1  1.0
    X4  R2  2.0  R3  1.0
    X5  COST  1.0  R1  1.0
    X5  R2  1.0
RHS
    RHS  R1  6.0  R2  5.0
    RHS  R3  -2.0
RANGES
    RNG  R1  2.0
BOUNDS
 LO BND  X2  1.0
 UP BND  X2  4.0
 MI BND  X3
 UP BND  X3  3.0
 FR BND  X4
 FX BND  X5  2.0
ENDATA
"""


def test_solve_print_solution_maps_every_variable_kind(tmp_path, capsys):
    from scipy.optimize import linprog

    p = tmp_path / "five.mps"
    p.write_text(FIVE_KINDS)
    assert main(["solve", str(p), "--print-solution"]) == 0
    out = capsys.readouterr().out
    printed = dict(line.strip().split(" = ") for line in out.splitlines() if " = " in line)
    x = np.array([float(printed[f"X{k}"]) for k in range(1, 6)])
    c = np.array([1.0, 2.0, -1.0, 0.5, 1.0])
    rows = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 0.0, -1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0, 0.0]])
    row_low = np.array([6.0, -np.inf, -2.0])
    row_up = np.array([8.0, 5.0, np.inf])
    low = np.array([0.0, 1.0, -np.inf, -np.inf, 2.0])
    up = np.array([np.inf, 4.0, 3.0, np.inf, 2.0])
    tol = 1e-6
    assert np.all(rows @ x >= row_low - tol) and np.all(rows @ x <= row_up + tol)
    assert np.all(x >= low - tol) and np.all(x <= up + tol)
    ref = linprog(
        c,
        A_ub=np.vstack((rows[:2], -rows[::2])),
        b_ub=[8.0, 5.0, -6.0, 2.0],
        bounds=[(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi) for lo, hi in zip(low, up)],
        method="highs",
    )
    assert ref.status == 0
    objective = float(out.split("objective:")[1].split()[0])
    assert objective == pytest.approx(ref.fun, rel=1e-6)
    assert c @ x == pytest.approx(ref.fun, rel=1e-6)


# No constraint rows: X1 shifted (1 <= X1 <= 4), X2 direct (X2 <= 2.5), X3
# negated (X3 <= 3) and X4 fixed (= 2); NOROWS_FREE makes X3 free, a ray.
NOROWS = """NAME NOROWS
ROWS
 N  COST
COLUMNS
    X1  COST  1.0
    X2  COST  -2.0
    X3  COST  -1.0
    X4  COST  0.5
BOUNDS
 LO BND  X1  1.0
 UP BND  X1  4.0
 UP BND  X2  2.5
 MI BND  X3
 UP BND  X3  3.0
 FX BND  X4  2.0
ENDATA
"""
NOROWS_FREE = NOROWS.replace(" MI BND  X3\n UP BND  X3  3.0\n", " FR BND  X3\n")


@pytest.mark.parametrize("text", [NOROWS, NOROWS_FREE], ids=["optimal", "unbounded"])
def test_solve_without_rows_matches_highs(tmp_path, capsys, text):
    from scipy.optimize import linprog

    p = tmp_path / "norows.mps"
    p.write_text(text)
    free = text == NOROWS_FREE
    bounds = [(1.0, 4.0), (0.0, 2.5), (None, None if free else 3.0), (2.0, 2.0)]
    ref = linprog([1.0, -2.0, -1.0, 0.5], bounds=bounds, method="highs")
    code = main(["solve", str(p), "--print-solution"])
    out = capsys.readouterr().out
    if free:
        assert ref.status == 3 and code == 3 and "status:     Unbounded" in out
        return
    assert ref.status == 0 and code == 0 and "status:     Optimal" in out
    assert float(out.split("objective:")[1].split()[0]) == pytest.approx(ref.fun, rel=1e-12)
    printed = dict(line.strip().split(" = ") for line in out.splitlines() if " = " in line)
    assert [float(printed[f"X{k}"]) for k in range(1, 5)] == pytest.approx(ref.x, rel=1e-12)


# one equality row and no columns: 0 = 1 has no solution
NOCOLUMNS = """NAME NOCOLS
ROWS
 N  COST
 E  R1
COLUMNS
RHS
    RHS  R1  1.0
ENDATA
"""


def test_solve_without_columns_is_infeasible(tmp_path, capsys):
    p = tmp_path / "nocols.mps"
    p.write_text(NOCOLUMNS)
    assert main(["solve", str(p)]) == 5
    out, err = capsys.readouterr()
    assert "status:     Infeasible" in out and err == ""
    # with b = 0 the empty point is optimal
    p.write_text(NOCOLUMNS.replace("    RHS  R1  1.0\n", ""))
    assert main(["solve", str(p)]) == 0
    assert "status:     Optimal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ["--r", "1.5"],
        ["--eps", "0"],
        ["--eps", "nan"],
        ["--eps", "inf"],
        ["--max-iter", "-1"],
        ["--trace", "/nonexistent/t.csv"],
    ],
    ids=["r-out-of-range", "eps-zero", "eps-nan", "eps-inf", "max-iter-negative", "trace-unwritable"],
)
def test_solve_bad_argument_exits_4(tmp_path, capsys, args):
    p = tmp_path / "tiny.mps"
    p.write_text(TINY)
    assert main(["solve", str(p), *args]) == 4
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        [NETLIB, "--r-grid", "1.5"],
        [NETLIB, "--r-grid", "a"],
        ["/nonexistent/corpus"],
        [NETLIB, "--max-iter", "-1"],
        [NETLIB, "--out", "/nonexistent/o.csv"],
        [NETLIB, "--timing", "/nonexistent/t.csv"],
    ],
    ids=[
        "r-grid-out-of-range",
        "r-grid-not-a-number",
        "missing-dir",
        "max-iter-negative",
        "out-unwritable",
        "timing-unwritable",
    ],
)
def test_bench_bad_argument_exits_4(tmp_path, capsys, monkeypatch, args):
    def no_work(*_, **__):
        raise AssertionError("bench read or solved a file before it failed")

    monkeypatch.setattr(galp.cli, "read_mps", no_work)
    monkeypatch.setattr(galp.cli, "solve", no_work)
    out = tmp_path / "table.csv"
    # a later --out in args overrides this one
    assert main(["bench", "--out", str(out), *args]) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# finite in the file, but the shift of X1's lower bound overflows b to -inf
OVERFLOW = TINY.replace("X1  COST  1.0  R1  1.0", "X1  COST  1.0  R1  1e300").replace(
    "ENDATA", "BOUNDS\n LO BND  X1  1e300\nENDATA"
)


# X3 is in no row, so its cost times its LO shift overflows only the objective offset
OFFSET_OVERFLOW = TINY.replace("    X2  R1  1.0", "    X2  R1  1.0\n    X3  COST  1e300").replace(
    "ENDATA", "BOUNDS\n LO BND  X3  1e300\nENDATA"
)


def assert_setup_error(tmp_path, capsys, text, message):
    """``galp solve`` exits 4 with ``message`` and ``galp bench`` writes err cells, with no warning."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ovf.mps").write_text(text)
    out = tmp_path / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(corpus / "ovf.mps")]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["bench", str(corpus), "--r-grid", "0,0.5", "--out", str(out)]) == 0
    assert read_csv(out)[1] == ["ovf", "err", "err"]


def test_non_finite_standard_form_is_an_error(tmp_path, capsys):
    # every number in the file is finite; the substitution overflows b, which StandardLP refuses
    assert_setup_error(tmp_path, capsys, OVERFLOW, "b has a non-finite entry")


def test_overflowing_objective_offset_is_an_error(tmp_path, capsys):
    # before, galp solve let the overflow warning out and printed "objective:  inf"
    assert_setup_error(tmp_path, capsys, OFFSET_OVERFLOW, "objective offset is non-finite")


def test_trace_csv_schema(tmp_path, capsys):
    p = tmp_path / "tiny.mps"
    p.write_text(TINY)
    trace = tmp_path / "trace.csv"
    assert main(["solve", str(p), "--trace", str(trace), "--quiet"]) == 0
    rows = read_csv(trace)
    assert rows[0] == [f.name for f in dataclasses.fields(TraceRecord)]
    assert rows[0][0] == "iteration"
    assert len(rows) >= 3  # start record plus iterations
    for k, row in enumerate(rows[1:]):
        assert int(row[0]) == k
        assert float(row[2]) >= 0.0  # rf
        int(row[7])  # clamps is integral
        float(row[8])  # regularization parses


def test_parser_defaults_are_solver_config_defaults():
    default = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    parser = galp.cli.build_parser()
    solve_args = parser.parse_args(["solve", "p.mps"])
    bench_args = parser.parse_args(["bench", "corpus"])
    assert solve_args.r == default["r"]
    for args in (solve_args, bench_args):
        assert (args.eps, args.max_iter) == (default["epsilon"], default["max_iterations"])
    assert bench_args.r_grid == "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7"
    assert tuple(float(tok) for tok in bench_args.r_grid.split(",")) == galp.cli.R_GRID


def test_every_status_has_an_exit_code_and_a_cell():
    expected = {
        Status.OPTIMAL: (0, "17"),
        Status.ITERATION_LIMIT: (2, "**"),
        Status.UNBOUNDED: (3, "err"),
        Status.INFEASIBLE: (5, "err"),
        Status.NUMERICAL_FAILURE: (4, "err"),
    }
    assert set(galp.cli.STATUS_TABLE) == set(Status) == set(expected)
    # perfbench checks galp bench's table against its own copy of the rule
    for status, (code, cell) in galp.cli.STATUS_TABLE.items():
        assert (code, cell.format(17)) == expected[status], status
        assert cell.format(17) == cli_cell(status.value, 17), status


def test_bench_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        ["bench", NETLIB, "--r-grid", "0,0.2,0.7", "--max-iter", "300", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["problem", "r=0", "r=0.2", "r=0.7"]
    assert [row[0] for row in rows[1:]] == ["adlittle", "afiro", "blend", "sc50a", "sc50b"]
    for row in rows[1:]:
        for cell in row[1:]:
            assert cell.isdigit()
            assert 1 <= int(cell) <= 300
    err = capsys.readouterr().err
    assert "r=0: 100.0%" in err
    assert "r=0.7: 100.0%" in err


def test_bench_corpus_table_pinned(tmp_path, capsys):
    # every cell of the default 8-value r grid over the corpus, compared exactly
    out = tmp_path / "table.csv"
    assert main(["bench", NETLIB, "--out", str(out)]) == 0
    assert read_csv(out) == read_csv(os.path.join(DATA, "netlib_iterations.csv"))


def test_bench_table_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["bench", NETLIB, "--r-grid", "0.2", "--out", str(a)])
    main(["bench", NETLIB, "--r-grid", "0.2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bench_timing_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    timing = tmp_path / "times.csv"
    main(["bench", NETLIB, "--r-grid", "0.2", "--out", str(out), "--timing", str(timing)])
    rows = read_csv(timing)
    assert rows[0] == read_csv(out)[0] + ["setup"]
    assert [row[0] for row in rows[1:]] == [row[0] for row in read_csv(out)[1:]]
    for row in rows[1:]:
        assert len(row) == 3
        assert float(row[1]) > 0.0
        assert float(row[2]) > 0.0


def test_bench_empty_dir_warns(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty), "--out", str(tmp_path / "t.csv")]) == 0
    assert "warning" in capsys.readouterr().err


def test_bench_isolates_bad_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(NAMED["afiro"].path, corpus / "afiro.mps")
    (corpus / "broken.mps").write_text("NAME X\nGARBAGE\n")
    out = tmp_path / "table.csv"
    timing = tmp_path / "times.csv"
    main(["bench", str(corpus), "--r-grid", "0.2", "--out", str(out), "--timing", str(timing)])
    rows = read_csv(out)
    table = {row[0]: row[1] for row in rows[1:]}
    assert table["afiro"].isdigit()
    assert table["broken"] == "err"
    assert "r=0.2: 50.0%" in capsys.readouterr().err
    times = {row[0]: row[1:] for row in read_csv(timing)[1:]}
    assert float(times["afiro"][1]) > 0.0
    assert times["broken"] == ["", ""]  # no solve and no set-up to time


def test_non_ascii_comment_is_read(tmp_path, capsys):
    # a latin-1 byte in a comment line: solve and bench read the file like afiro
    head, rest = NAMED["afiro"].path.read_bytes().split(b"\n", 1)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "afiro.mps").write_bytes(head + b"\n* caf\xe9\n" + rest)
    assert main(["solve", str(corpus / "afiro.mps"), "--quiet"]) == 0
    out = tmp_path / "table.csv"
    assert main(["bench", str(corpus), "--out", str(out)]) == 0
    pinned = read_csv(os.path.join(DATA, "netlib_iterations.csv"))
    assert read_csv(out) == [pinned[0]] + [row for row in pinned[1:] if row[0] == "afiro"]


def test_bench_stdout_default(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(NAMED["afiro"].path, corpus / "afiro.mps")
    assert main(["bench", str(corpus), "--r-grid", "0.2"]) == 0
    out = capsys.readouterr().out
    reader = csv.reader(io.StringIO(out))
    rows = list(reader)
    assert rows[0] == ["problem", "r=0.2"]
    assert rows[1][0] == "afiro"


PYPROJECT = os.path.join(ROOT, "pyproject.toml")


def declared_script():
    """The ``galp`` entry of ``[project.scripts]`` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "galp" in scripts, "pyproject.toml declares no galp console script"
    return scripts["galp"]


def galp_installed():
    try:
        importlib.metadata.distribution("galp")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def run_wrapper(entry_point, *args, cwd):
    """Run the entry point as the wrapper pip generates for a console script.

    PYTHONPATH is the directory galp was imported from, so the result does
    not depend on the working directory or on an install.
    """
    code = (
        f"import sys; from {entry_point.module} import {entry_point.attr}; "
        f"sys.exit({entry_point.attr}())"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(galp.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def test_console_script_installed(tmp_path):
    entry_point = importlib.metadata.EntryPoint(
        name="galp", value=declared_script(), group="console_scripts"
    )
    assert entry_point.load() is galp.cli.main

    solved = run_wrapper(entry_point, "solve", str(NAMED["afiro"].path), cwd=tmp_path)
    assert solved.returncode == 0, solved.stderr
    assert "status:     Optimal" in solved.stdout

    missing = run_wrapper(entry_point, "solve", str(tmp_path / "missing.mps"), cwd=tmp_path)
    assert missing.returncode == 4, missing.stderr

    helped = run_wrapper(entry_point, "--help", cwd=tmp_path)
    assert helped.returncode == 0, helped.stderr
    assert helped.stdout.startswith("usage: galp")


@pytest.mark.skipif(
    not galp_installed(),
    reason="galp distribution is not installed (importlib.metadata.PackageNotFoundError)",
)
def test_console_script_on_path():
    assert shutil.which("galp") is not None
    installed = {
        ep.name: ep.value
        for ep in importlib.metadata.distribution("galp").entry_points
        if ep.group == "console_scripts"
    }
    assert installed.get("galp") == declared_script()
    proc = subprocess.run(
        ["galp", "solve", str(NAMED["afiro"].path), "--quiet"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
