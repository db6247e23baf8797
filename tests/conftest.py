import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, os.path.dirname(__file__))

from families import DATA, FIXTURES, NETLIB, NETLIB_PROBLEMS  # noqa: F401  re-exported to the test modules
from families import PANEL
from galp.model import StandardLP
from galp.penalty import GaugeParams
from galp.solver import SolverConfig, recover_duals, solve

# Published optimal objectives for the mini-corpus.
NETLIB_OPTIMA = {
    "afiro": -464.75314286,
    "sc50a": -64.575077059,
    "sc50b": -70.0,
    "adlittle": 225494.96316,
    "blend": -30.812149846,
}


def sparse_product_normal(A, dinv):
    """A diag(dinv) A^t by scipy's sparse product: its lower triangle, transposed
    into the upper one, with the strict lower triangle zero.

    The assembly kernel must reproduce this bit for bit.
    """
    M = np.asarray((A.multiply(dinv) @ A.T).todense())
    return np.ascontiguousarray(np.tril(M).T)


def make_lp(A, b, c, upper=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    if upper is None:
        upper = np.full(n, np.inf)
    return StandardLP(
        A=sp.csc_matrix(A),
        b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
        upper=np.asarray(upper, dtype=float),
    )


def pass_at(lp, x, r):
    """The solver's pass at x for exponent r (``recover_duals``): H^-1, the
    factor of A H^-1 A^t, both directions and the duals."""
    p = GaugeParams(r, lp.bounded, lp.upper_I)
    return recover_duals(lp, x, p, lp.b - lp.A @ x)


def random_lp(rng, m=3, n=6, bounded="some"):
    """Feasible random instance: b = A @ x_feas for an interior x_feas.

    bounded: "none", "some", or "all" columns get finite upper bounds; with
    "all" the feasible set is compact, so the LP is bounded for any c.
    """
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    x_feas = rng.uniform(0.5, 1.5, size=n)
    b = A @ x_feas
    c = rng.uniform(-1.0, 1.0, size=n)
    upper = np.full(n, np.inf)
    if bounded == "all":
        mask = np.ones(n, dtype=bool)
    elif bounded == "some":
        mask = rng.random(n) < 0.5
    else:
        mask = np.zeros(n, dtype=bool)
    upper[mask] = x_feas[mask] + rng.uniform(0.5, 2.0, size=int(mask.sum()))
    lp = StandardLP(A=sp.csc_matrix(A), b=b, c=c, upper=upper)
    return lp, x_feas


def random_interior_point(rng, lp):
    """A strictly interior point of the box (not necessarily feasible)."""
    x = rng.uniform(0.1, 1.0, size=lp.n)
    idx = lp.bounded
    x[idx] = lp.upper[idx] * rng.uniform(0.1, 0.9, size=len(idx))
    return x


@pytest.fixture(scope="session")
def sweep_runs():
    """The r sweep of the corpus, the 20 fixtures and the first 2 seeds of
    sparse-large (labelled sparse_0, sparse_1) and box-heavy (boxed_0, boxed_1).

    ``(cases, reports)``: ``cases`` lists (label, member, r grid), and
    ``reports[label, r]`` is the SolveReport of each cell, solved on a fresh
    ``member.lp()`` at the default SolverConfig.  The reports are shared by
    every test that takes them, so none may change one.
    """
    cases = []
    for family in ("corpus", "fixtures"):
        for member in PANEL[family].members:
            cases.append((member.name, member, PANEL[family].grid))
    for label, family in (("sparse", "sparse_large"), ("boxed", "box_heavy")):
        for member in PANEL[family].members[:2]:
            cases.append((f"{label}_{member.seed}", member, PANEL[family].grid))
    reports = {
        (label, r): solve(member.lp(), SolverConfig(r=r))
        for label, member, grid in cases
        for r in grid
    }
    return cases, reports


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
