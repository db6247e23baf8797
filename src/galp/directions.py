"""Search directions for the affine scaling iteration.

All directions share one Cholesky factor of A H^-1 A^t and one diagonal
H^-1 (``hinv``) per iterate, both computed once by the caller:

* descent:     y = (A H^-1 A^t)^-1 A H^-1 c,  s = c - A^t y,  d = -H^-1 s,
  which equals -H^(-1/2) P H^(-1/2) c with P the orthogonal projector onto
  ker(A H^(-1/2)); hence A d = 0 and <c, d> = -||H^(-1/2) s||^2 <= 0.
* feasibility: dx = H^-1 A^t (A H^-1 A^t)^-1 (b - A x), oriented so that
  A dx = b - A x exactly cancels the residual; the right-hand side is
  recomputed from the current iterate to avoid accumulating round-off.
* reprojection: subtracting the row-space component of a computed d shrinks
  ||A d|| when round-off has crept in; algebraically a no-op.

``newton_direction`` solves the full Newton system of the penalized problem
at a given mu; the production path only ever uses its mu-independent limit d.
"""

from __future__ import annotations

import numpy as np

from .linalg import CholeskyFactor, assemble_normal, factor, normal_plan, solve
from .model import StandardLP
from .penalty import GaugeParams, scaling_diagonals


def descent_direction(lp: StandardLP, hinv, F: CholeskyFactor):
    """Affine scaling descent direction; returns (d, y, s)."""
    y = solve(F, lp.A @ (hinv * lp.c))
    s = lp.c - lp.A.T @ y
    d = -hinv * s
    return d, y, s


def feasibility_direction(lp: StandardLP, x, hinv, F: CholeskyFactor):
    """Residual-canceling direction with A dx = b - A x."""
    resid = lp.b - lp.A @ x
    return hinv * (lp.A.T @ solve(F, resid))


def reproject(d, lp: StandardLP, F: CholeskyFactor, hinv):
    """Remove the numerical row-space component from d."""
    return d - hinv * (lp.A.T @ solve(F, lp.A @ d))


def newton_direction(lp: StandardLP, x, mu: float, p: GaugeParams):
    """Newton direction d(mu) of the penalized objective; testing-only.

    Satisfies mu (1-r) d(mu) = -H^(-1/2) P H^(-1/2) (c - mu G e), so
    mu (1-r) d(mu) -> d as mu -> 0.
    """
    if not 0.0 < p.r < 1.0 or mu <= 0.0:
        raise ValueError("newton_direction needs r in (0, 1) and mu > 0")
    sd = scaling_diagonals(x, p)
    hinv = 1.0 / sd.h
    F = factor(assemble_normal(normal_plan(lp.A), hinv))

    def project(v):
        # H^(-1/2) P H^(-1/2) v, via the normal equations
        return hinv * v - hinv * (lp.A.T @ solve(F, lp.A @ (hinv * v)))

    grad = lp.c - mu * sd.g
    return -project(grad) / (mu * (1.0 - p.r))


def max_step(x, upper, dir, cap=None):
    """Largest t with x + t*dir inside the closed box; +inf if unconstrained.

    ``upper`` uses +inf for unbounded variables.  A finite ``cap`` joins the
    minimum (the feasibility phase caps at 1).
    """
    x = np.asarray(x, dtype=float)
    dir = np.asarray(dir, dtype=float)
    candidates = []
    neg = dir < 0
    if np.any(neg):
        candidates.append(np.min(-x[neg] / dir[neg]))
    pos = (dir > 0) & np.isfinite(upper)
    if np.any(pos):
        candidates.append(np.min((upper[pos] - x[pos]) / dir[pos]))
    if cap is not None:
        candidates.append(float(cap))
    return min(candidates) if candidates else np.inf
