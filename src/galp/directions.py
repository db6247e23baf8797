"""Search directions for the affine scaling iteration.

All directions share one Cholesky factor of A H^-1 A^t and one diagonal
H^-1 (``hinv``) per iterate, both computed once by ``solver.recover_duals``,
the one pass per point.  The descent and feasibility directions map the two
columns of that pass's one two-column ``solve``; only ``reproject`` solves
for itself, because its right-hand side depends on d:

* descent:     y = (A H^-1 A^t)^-1 A H^-1 c,  s = c - A^t y,  d = -H^-1 s,
  which equals -H^(-1/2) P H^(-1/2) c with P the orthogonal projector onto
  ker(A H^(-1/2)); hence A d = 0 and <c, d> = -||H^(-1/2) s||^2 <= 0.
* feasibility: dx = H^-1 A^t v with v = (A H^-1 A^t)^-1 (b - A x), oriented
  so that A dx = b - A x exactly cancels the residual; the right-hand side
  is recomputed from the current iterate to avoid accumulating round-off.
* reprojection: subtracting the row-space component of a computed d shrinks
  ||A d|| when round-off has crept in; algebraically a no-op.

Every product of A or A^t with a vector goes through ``lp.matvec`` or
``lp.rmatvec``, scipy's compiled kernels bound once per LP to A's arrays.

``max_step`` is the ratio test.  Each coordinate's distance to the wall its
direction points at (x_j toward 0 when dir_j < 0, u_j - x_j otherwise) is
divided by |dir_j| under one ``np.errstate``, and one ``np.minimum.reduce``
with the cap as ``initial`` takes the minimum.  At an interior point with a
finite direction every ratio is a number >= 0, +inf where dir_j = 0 or u_j
is infinite, so that minimum is the masked test (-x_j / dir_j over
dir_j < 0, (u_j - x_j) / dir_j over dir_j > 0 with u_j finite) bit for bit,
since (-x)/d and x/|d| round to the same double.  Only a NaN or negative
minimum, which needs a non-finite entry or a point outside the box, reduces
again over the coordinates that count: dir_j nonzero and not NaN, and a wall
not at +inf.  There 0/0 at a wall, a NaN dir_j and inf/inf toward an
infinite wall drop out, but the NaN of a NaN x_j, or of x_j = u_j = +inf
heading up, stays and makes the step NaN.  That NaN is what stops a solve
whose direction overflowed; a reduction that skipped it (``np.fmin``) lets
such a solve end IterationLimit or Unbounded instead of NumericalFailure.
The errstate also ignores overflow: a ratio over a subnormal |dir_j| may
overflow to +inf, which is the masked test's value too.

``newton_direction`` solves the full Newton system of the penalized problem
at a given mu; the production path only ever uses its mu-independent limit d.
"""

from __future__ import annotations

import numpy as np

from .linalg import CholeskyFactor, factor_normal, solve
# unused here, but perfbench/tracing.BINDINGS looks both names up in this
# module; ROADMAP item 3 retires BINDINGS, and these two names with it
from .linalg import assemble_normal, factor  # noqa: F401
from .model import StandardLP
from .penalty import GaugeParams, penalty_gradient, scaling_diagonals


def descent_direction(lp: StandardLP, hinv, y):
    """Affine scaling descent direction from y = (A H^-1 A^t)^-1 A H^-1 c; returns (d, s)."""
    s = lp.c - lp.rmatvec(y)
    return -hinv * s, s


def feasibility_direction(lp: StandardLP, hinv, v):
    """Residual-canceling direction H^-1 A^t v from v = (A H^-1 A^t)^-1 (b - A x), so A dx = b - A x."""
    return hinv * lp.rmatvec(v)


def reproject(d, lp: StandardLP, F: CholeskyFactor, hinv):
    """Remove the numerical row-space component from d."""
    return d - hinv * lp.rmatvec(solve(F, lp.matvec(d)))


def newton_direction(lp: StandardLP, x, mu: float, p: GaugeParams):
    """Newton direction d(mu) of the penalized objective; testing-only.

    Satisfies mu (1-r) d(mu) = -H^(-1/2) P H^(-1/2) (c - mu G e), so
    mu (1-r) d(mu) -> d as mu -> 0.
    """
    if not 0.0 < p.r < 1.0 or mu <= 0.0:
        raise ValueError("newton_direction needs r in (0, 1) and mu > 0")
    hinv = 1.0 / scaling_diagonals(x, p).h
    F = factor_normal(lp.plan, hinv)
    # H^(-1/2) P H^(-1/2) g is reproject applied to H^-1 g
    return -reproject(hinv * penalty_gradient(x, lp.c, mu, p), lp, F, hinv) / (mu * (1.0 - p.r))


def max_step(x, upper, dir, cap=None):
    """Largest t with x + t*dir inside the closed box; +inf if unconstrained.

    ``upper`` uses +inf for unbounded variables.  A finite ``cap`` joins the
    minimum (the feasibility phase caps at 1).  A coordinate counts when
    dir_j is nonzero and not NaN and its wall is not at +inf; a NaN ratio
    among those, as from a NaN x_j, makes the step NaN.
    """
    a = np.abs(dir)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wall = np.where(dir < 0, x, upper - x)  # distance to the wall dir points at
        ratios = wall / a
    initial = np.inf if cap is None else float(cap)
    step = np.minimum.reduce(ratios, initial=initial)
    if not step >= 0:
        # a NaN or negative minimum: keep only the coordinates that count
        step = np.minimum.reduce(ratios, initial=initial, where=(a > 0) & (wall != np.inf))
    return float(step)
