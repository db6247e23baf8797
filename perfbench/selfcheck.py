#!/usr/bin/env python3
"""Checks of the benchmark's own machinery; run from the root of a galp checkout:

    python3 perfbench/selfcheck.py

* the generator: one seed gives byte-identical MPS text, in this process and
  in a fresh one, and the same HiGHS reference; galp's reader gets back
  exactly the arrays HiGHS solved;
* the tracer: self time on a hand-built span tree, parent links and
  exception counts from real wrappers, and ``patched`` restoring every
  binding it replaced;
* the calibration: which kernel timings scale a solve.

Each ``check_*`` function raises AssertionError on failure.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from calibrate import SMALL, Calibration  # noqa: E402
from gen import Shape, generate, highs_reference  # noqa: E402
from workloads import BOX_HEAVY  # noqa: E402

SMALL_BOXED = Shape(m=30, n=90, density=0.1, boxed=True)
SMALL_FREE = Shape(m=30, n=90, density=0.1, boxed=False)


def check_generator_is_deterministic():
    for shape in (SMALL_BOXED, SMALL_FREE, BOX_HEAVY):
        first, second = generate(7, shape, "p"), generate(7, shape, "p")
        assert first.mps_text() == second.mps_text(), "same seed, different MPS text"
        assert highs_reference(first) == highs_reference(second), "same seed, different HiGHS reference"
        assert generate(8, shape, "p").mps_text() != first.mps_text(), "seed is ignored"
    code = (f"import sys; sys.path.insert(0, {HERE!r}); from gen import generate, Shape; "
            "print(generate(7, Shape(30, 90, 0.1, True), 'p').digest())")
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.strip()
    assert fresh == generate(7, SMALL_BOXED, "p").digest(), "MPS text differs between processes"


def check_reader_gets_the_generated_lp():
    from galp import parse_mps, to_standard_form

    for shape in (SMALL_BOXED, SMALL_FREE):
        inst = generate(3, shape, "p")
        lp, vmap = to_standard_form(parse_mps(inst.mps_text()))
        assert vmap.offset == 0.0
        assert (lp.A != inst.A).nnz == 0, "constraint matrix changed on the way through MPS"
        assert np.array_equal(lp.b, inst.b) and np.array_equal(lp.c, inst.c)
        assert np.array_equal(lp.upper, inst.upper)


def check_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]; a second root c [11, 12]
    spans = [
        ["root", -1, 0.0, 10.0, None],
        ["a", 0, 1.0, 4.0, None],
        ["a1", 1, 2.0, 3.0, None],
        ["b", 0, 5.0, 9.0, None],
        ["a", -1, 11.0, 12.0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracing.totals(spans) == {
        "root": (1, 10.0, 3.0),
        "a": (2, 4.0, 3.0),
        "a1": (1, 1.0, 1.0),
        "b": (1, 4.0, 4.0),
    }


def check_wrappers_link_parents_and_count_exceptions():
    tracer = tracing.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap(leaf, "leaf")

    def outer(x):
        traced_leaf(x)
        try:
            traced_leaf(-1)
        except ValueError:
            pass
        return traced_leaf(x)

    assert tracer.wrap(outer, "outer")(2) == 2
    assert [(name, parent) for name, parent, *_ in tracer.spans] == [
        ("outer", -1), ("leaf", 0), ("leaf", 0), ("leaf", 0)
    ]
    assert all(t1 >= t0 for _, _, t0, t1, _ in tracer.spans)
    assert dict(tracer.exceptions) == {("leaf", "ValueError"): 1}


def check_calibration_scales_by_the_timings_around_a_solve():
    cal = Calibration.__new__(Calibration)  # no kernel runs: only the arithmetic is checked
    cal.kernel = SMALL
    cal.times = [0.002, 0.004, 0.008]
    ref = SMALL.reference_s
    assert cal.scale_at(0) == ref / 0.002, "before the first timing: that timing alone"
    assert cal.scale_at(1) == ref * 2 / 0.006, "between timings 0 and 1: their mean"
    assert cal.scale_at(3) == ref / 0.008, "after the last timing: that timing alone"


def check_patched_restores_every_binding():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, attrs in tracing.BINDINGS.items() for a in attrs}
    with tracing.patched(tracing.Tracer()):
        for (m, a), fn in before.items():
            now = getattr(importlib.import_module(m), a)
            assert now is not fn and now.__wrapped__ is fn, f"{m}.{a} is not wrapped"
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a} was not restored"


def main() -> int:
    failures = 0
    for name, check in sorted(globals().items()):
        if name.startswith("check_") and callable(check):
            try:
                check()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
