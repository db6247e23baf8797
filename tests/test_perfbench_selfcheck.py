"""The benchmark's own checks pass against this tree.

``perfbench/selfcheck.py`` wraps every name in ``perfbench/tracing.BINDINGS``;
a refactor that unbinds one of them breaks ``perfbench/run.py --trace 1``, and
fails here first.  A refactor that keeps a name bound but stops calling it
would silently empty its per-layer metric; ``test_traced_solve_spans_every_binding``
catches that.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

from galp.model import to_standard_form
from galp.mps import read_mps
from galp.solver import SolverConfig, Status, solve

from conftest import netlib_path

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


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_spans_every_binding():
    tracing = load_tracing()
    expected = {
        tracing.span_name(getattr(importlib.import_module(modname), attr))
        for modname, attrs in tracing.BINDINGS.items()
        for attr in attrs
    }
    assert len(expected) == 12
    lp = to_standard_form(read_mps(netlib_path("afiro")))[0]
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert solve(lp, SolverConfig(r=0.2)).status == Status.OPTIMAL
    assert expected - {name for name, *_ in tracer.spans} == set()
