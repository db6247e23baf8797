"""The benchmark's own checks pass against this tree.

``perfbench/selfcheck.py`` wraps every name in ``perfbench/tracing.BINDINGS``;
a refactor that unbinds one of them breaks ``perfbench/run.py --trace 1``, and
fails here first.  A refactor that keeps a name bound but stops calling it
would silently empty its per-layer metric; ``test_traced_solve_spans_every_binding``
catches that, and its warm-LP twin catches a binding that only an LP's first
solve calls (the traced run solves each cell untraced first).
``test_benchmark_entry_point_runs`` runs ``perfbench/run.py`` itself, briefly,
on netlib-sweep with and without tracing, on a copy of the files it reads.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from galp.solver import SolverConfig, Status, solve

from families import NAMED
import tracing  # perfbench/tracing.py; see tests/families.py

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selfcheck.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_solve_spans_every_binding():
    expected = {
        tracing.span_name(getattr(importlib.import_module(modname), attr))
        for modname, attrs in tracing.BINDINGS.items()
        for attr in attrs
    }
    assert len(expected) == 12
    lp = NAMED["afiro"].lp()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert solve(lp, SolverConfig(r=0.2)).status == Status.OPTIMAL
    assert expected - {name for name, *_ in tracer.spans} == set()


def test_traced_solve_of_a_warm_lp_spans_every_binding():
    # perfbench solves each cell untraced before its traced twin, so the
    # traced solve meets an LP whose start is already memoized
    lp = NAMED["afiro"].lp()
    assert solve(lp, SolverConfig(r=0.2)).status == Status.OPTIMAL
    assert lp.start is not None
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert solve(lp, SolverConfig(r=0.5)).status == Status.OPTIMAL
    expected = {
        tracing.span_name(getattr(importlib.import_module(modname), attr))
        for modname, attrs in tracing.BINDINGS.items()
        for attr in attrs
    }
    assert "solver.choose_start" in expected
    assert expected - {name for name, *_ in tracer.spans} == set()


def copy_benchmark_tree(dest):
    """What perfbench/run.py reads for netlib-sweep, so a run writes nothing into this checkout."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for parts in (("perfbench",), ("src", "galp"), ("tests", "data", "netlib")):
        shutil.copytree(os.path.join(ROOT, *parts), os.path.join(dest, *parts), ignore=skip)
    shutil.copy(os.path.join(ROOT, "tests", "conftest.py"), os.path.join(dest, "tests", "conftest.py"))


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_entry_point_runs(tmp_path, trace):
    copy_benchmark_tree(tmp_path)
    argv = ["--workload", "netlib-sweep", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
