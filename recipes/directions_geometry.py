"""
Search directions
=================

One Cholesky factorization of A H^-1 A^t per iterate yields three things:
the descent direction (a projected, rescaled objective gradient), the
feasibility direction (which cancels the residual b - Ax exactly), and the
dual estimates.  One two-column solve with that factor serves both
directions: its columns are (A H^-1 A^t)^-1 A H^-1 c and
(A H^-1 A^t)^-1 (b - Ax).  ``recover_duals`` is that pass, the one the
solver makes at every point.  The Newton direction of the penalized
problem, scaled by mu (1 - r), converges to the same descent direction as
mu -> 0.
"""

import numpy as np
import scipy.sparse as sp

from galp import StandardLP, GaugeParams
from galp.directions import max_step, newton_direction
from galp.solver import recover_duals

lp = StandardLP(
    A=sp.csc_matrix(np.array([[1.0, 1.0]])),
    b=np.array([1.0]),
    c=np.array([1.0, 0.0]),
    upper=np.full(2, np.inf),
)


def pass_at(x, r):
    """The solver's pass at x: both directions and the duals from one factor."""
    return recover_duals(lp, x, GaugeParams(r, lp.bounded, lp.upper_I), lp.b - lp.A @ x)


x = np.array([0.5, 0.5])
pt = pass_at(x, 0.0)
d = pt.d
print("descent d =", d, "  A d =", lp.A @ d, "  <c, d> =", lp.c @ d)
print("duals y =", pt.y, "  s =", lp.c - lp.A.T @ pt.y)
print("wall distance along d:", max_step(x, lp.upper, d))

# from an infeasible point the feasibility direction cancels the residual
x_bad = np.array([1.0, 1.0])
dx = pass_at(x_bad, 0.0).dx
print("\nresidual before:", lp.b - lp.A @ x_bad)
print("residual after a full step:", lp.b - lp.A @ (x_bad + dx))

# the Newton direction approaches the descent direction as mu -> 0
p5 = GaugeParams(0.5, lp.bounded, lp.upper_I)
print("\nr = 0.5 descent:", pass_at(x, 0.5).d)
for mu in (1.0, 1e-2, 1e-4):
    dn = newton_direction(lp, x, mu, p5)
    print(f"mu = {mu:6.0e}   mu(1-r) d(mu) = {mu * 0.5 * dn}")
