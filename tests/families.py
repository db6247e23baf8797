"""Every seeded LP family the tests and tools/iterate_hash.py solve, named once.

A family is its members, one LP each, and the r grid they are solved at.

* ``PANEL`` is what tools/iterate_hash.py hashes, in that order: the corpus
  ``NETLIB_PROBLEMS`` (tests/data/netlib, by file name) at
  ``galp.cli.R_GRID``, fix01-fix20 at ``FIXTURE_GRID``, and the benchmark's
  sparse_large and box_heavy, with perfbench/workloads.py's shapes, seeds
  and grids and perfbench's names.
* ``NAMED`` looks up a corpus or fixture member by name (``NAMED["afiro"]``),
  for the tests that pick one file.
* ``HELD_OUT`` holds the families tests/test_status_truth.py gates, which no
  solver setting was tuned on: box_heavy's seeds after the benchmark's, two
  100x300 shapes, and four that place x_feas and u in their own ways.

A member keeps only what cannot change, its MPS text and its HiGHS optimum,
each computed on first use; ``raw()`` and ``lp()`` build a new object on
every call, so no caller can change an LP that another one solves.  A
generated member's HiGHS optimum is taken on its generator's own arrays,
as perfbench takes it, and a file's on galp's standard form of the file.
A new family goes here, with its digests in tests/data/family_digests.csv.

This module does not import pytest, so tools/ can import it.  It puts
perfbench/ on sys.path, where perfbench's modules import one another by bare
name; tests/conftest.py imports it, so test modules import them that way too
(``from harness import cli_cell``).
"""

import functools
import os
import pathlib
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from galp.cli import R_GRID
from galp.model import to_standard_form
from galp.mps import parse_mps

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
NETLIB = os.path.join(DATA, "netlib")
FIXTURES = os.path.join(DATA, "fixtures")
PERFBENCH = os.path.join(ROOT, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from gen import Instance, Shape, _pattern, generate, highs_reference  # noqa: E402
from workloads import BOX_HEAVY, BOX_HEAVY_GRID, BOX_HEAVY_SEEDS  # noqa: E402
from workloads import SPARSE_LARGE, SPARSE_LARGE_GRID, SPARSE_LARGE_SEEDS  # noqa: E402

NETLIB_PROBLEMS = ("afiro", "sc50a", "sc50b", "adlittle", "blend")
FIXTURE_GRID = (0.0, 0.2, 0.5)
SMALL_BOXED = Shape(m=100, n=300, density=0.03, boxed=True)
SMALL_UNBOXED = Shape(m=100, n=300, density=0.03, boxed=False)


class Member:
    """One LP of a family, read from an MPS file: ``name`` is the file's stem."""

    seed = None

    def __init__(self, path):
        self.path = path
        self.name = path.stem

    @functools.cached_property
    def text(self) -> str:
        return self.path.read_text(encoding="ascii", errors="replace")  # as galp.read_mps reads a file

    @functools.cached_property
    def highs(self) -> float:
        return highs_optimum(self.lp(), self.name)

    def raw(self):
        return parse_mps(self.text)

    def lp(self):
        return to_standard_form(self.raw())[0]


class Generated(Member):
    """One LP of a generated family: ``build(seed, spec, name)`` is its gen.Instance.

    Its MPS text is the Instance's, and its HiGHS optimum is taken on the
    Instance's own arrays, so a fault in galp's parser or converter cannot
    move the reference along with the LP galp solves.
    """

    def __init__(self, name, seed, build, spec):
        self.name = name
        self.seed = seed
        self._build = build
        self._spec = spec

    def instance(self) -> Instance:
        """A new Instance on every call."""
        return self._build(self.seed, self._spec, self.name)

    @functools.cached_property
    def text(self) -> str:
        return self.instance().mps_text()

    @functools.cached_property
    def highs(self) -> float:
        return highs_reference(self.instance())


@dataclass(frozen=True)
class Family:
    name: str
    members: tuple
    grid: tuple


def highs_optimum(lp, name="lp") -> float:
    """HiGHS's optimum of a StandardLP, as ``report.objective``; RuntimeError if it finds none."""
    return highs_reference(Instance(name, lp.A, lp.b, lp.c, lp.upper))


def _files(name, paths, grid):
    return Family(name, tuple(Member(path) for path in paths), grid)


def _generated(name, build, spec, seeds, grid):
    """The family whose member of seed s is ``build(s, spec, name_s)``."""
    return Family(name, tuple(Generated(f"{name}_{s}", s, build, spec) for s in seeds), grid)


def _placed(seed, family, name):
    """SMALL_BOXED's pattern and entries, with b = A x_feas, and x_feas placed in its box by ``family``.

    near_wall has u ~ U(1, 3.5) and x_feas = u U(0.02, 0.3), far_wall
    x_feas = u U(0.7, 0.98), both with c ~ U(-1, 1).  half_boxed boxes half
    the columns at x_feas + U(0.5, 2) and loose_big_m boxes all of them, half
    at a u log-uniform on [1e4, 1e9]; in both c = A^t y + s with s > 0 on
    the columns that are free or loosely boxed, so the LP is bounded, and
    s ~ U(-1, 1) on the tightly boxed ones, whose bounds may bind.
    """
    m, n = SMALL_BOXED.m, SMALL_BOXED.n
    rng = np.random.default_rng(seed)
    rows, cols = _pattern(rng, m, n, SMALL_BOXED.density)
    vals = rng.uniform(0.2, 1.0, size=rows.size) * rng.choice((-1.0, 1.0), size=rows.size)
    A = sp.csc_matrix((vals, (rows, cols)), shape=(m, n))
    if family in ("near_wall", "far_wall"):
        upper = rng.uniform(1.0, 3.5, size=n)
        lo, hi = (0.02, 0.3) if family == "near_wall" else (0.7, 0.98)
        x_feas = upper * rng.uniform(lo, hi, size=n)
        c = rng.uniform(-1.0, 1.0, size=n)
    else:
        x_feas = rng.uniform(0.5, 1.5, size=n)
        tight = x_feas + rng.uniform(0.5, 2.0, size=n)
        loose = rng.random(n) < 0.5
        if family == "half_boxed":
            upper = np.where(loose, np.inf, tight)
        else:
            upper = np.where(loose, 10.0 ** rng.uniform(4.0, 9.0, size=n), tight)
        s = np.where(loose, rng.uniform(0.1, 1.0, size=n), rng.uniform(-1.0, 1.0, size=n))
        c = A.T @ rng.standard_normal(m) + s
    return Instance(name=name, A=A, b=A @ x_feas, c=c, upper=upper)


PANEL = {family.name: family for family in (
    _files("corpus", [pathlib.Path(NETLIB, f"{name}.mps") for name in sorted(NETLIB_PROBLEMS)], R_GRID),
    _files("fixtures", [pathlib.Path(FIXTURES, f"fix{k:02d}.mps") for k in range(1, 21)], FIXTURE_GRID),
    _generated("sparse_large", generate, SPARSE_LARGE, SPARSE_LARGE_SEEDS, SPARSE_LARGE_GRID),
    _generated("box_heavy", generate, BOX_HEAVY, BOX_HEAVY_SEEDS, BOX_HEAVY_GRID),
)}

NAMED = {member.name: member for family in ("corpus", "fixtures") for member in PANEL[family].members}

HELD_OUT = {family.name: family for family in (
    _generated("box_heavy", generate, BOX_HEAVY, range(6, 12), FIXTURE_GRID),  # the benchmark takes 0-5
    _generated("boxed_100x300", generate, SMALL_BOXED, range(6), FIXTURE_GRID),
    _generated("near_wall", _placed, "near_wall", range(101, 104), FIXTURE_GRID),
    _generated("far_wall", _placed, "far_wall", range(201, 204), FIXTURE_GRID),
    _generated("half_boxed", _placed, "half_boxed", range(301, 304), FIXTURE_GRID),
    _generated("loose_big_m", _placed, "loose_big_m", range(401, 404), FIXTURE_GRID),
    _generated("unboxed_100x300", generate, SMALL_UNBOXED, range(6), FIXTURE_GRID),
)}
