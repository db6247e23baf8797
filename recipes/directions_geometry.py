"""
Search directions
=================

One Cholesky factorization of A H^-1 A^t per iterate yields three things:
the descent direction (a projected, rescaled objective gradient), the
feasibility direction (which cancels the residual b - Ax exactly), and the
dual estimates.  One two-column solve with that factor serves both
directions: its columns are (A H^-1 A^t)^-1 A H^-1 c and
(A H^-1 A^t)^-1 (b - Ax).  The Newton direction of the penalized problem,
scaled by mu (1 - r), converges to the same descent direction as mu -> 0.
"""

import numpy as np
import scipy.sparse as sp

from galp import StandardLP, GaugeParams, scaling_diagonals
from galp.directions import descent_direction, feasibility_direction, max_step, newton_direction
from galp.linalg import assemble_normal, factor, normal_plan, solve

lp = StandardLP(
    A=sp.csc_matrix(np.array([[1.0, 1.0]])),
    b=np.array([1.0]),
    c=np.array([1.0, 0.0]),
    upper=np.full(2, np.inf),
)

x = np.array([0.5, 0.5])
p = GaugeParams(r=0.0, upper=lp.upper)
hinv = 1.0 / scaling_diagonals(x, p).h
plan = normal_plan(lp.A)
F = factor(assemble_normal(plan, hinv))


def directions(x, hinv, F):
    """Descent (d, y, s) and feasibility dx at x, from one two-column solve."""
    v = solve(F, np.column_stack((lp.A @ (hinv * lp.c), lp.b - lp.A @ x)))
    return descent_direction(lp, hinv, v[:, 0]), feasibility_direction(lp, hinv, v[:, 1])


(d, y, s), _ = directions(x, hinv, F)
print("descent d =", d, "  A d =", lp.A @ d, "  <c, d> =", lp.c @ d)
print("duals y =", y, "  s =", s)
print("wall distance along d:", max_step(x, lp.upper, d))

# from an infeasible point the feasibility direction cancels the residual
x_bad = np.array([1.0, 1.0])
hinv_bad = 1.0 / scaling_diagonals(x_bad, p).h
F_bad = factor(assemble_normal(plan, hinv_bad))
_, dx = directions(x_bad, hinv_bad, F_bad)
print("\nresidual before:", lp.b - lp.A @ x_bad)
print("residual after a full step:", lp.b - lp.A @ (x_bad + dx))

# the Newton direction approaches the descent direction as mu -> 0
p5 = GaugeParams(r=0.5, upper=lp.upper)
hinv5 = 1.0 / scaling_diagonals(x, p5).h
F5 = factor(assemble_normal(plan, hinv5))
(d5, _, _), _ = directions(x, hinv5, F5)
print("\nr = 0.5 descent:", d5)
for mu in (1.0, 1e-2, 1e-4):
    dn = newton_direction(lp, x, mu, p5)
    print(f"mu = {mu:6.0e}   mu(1-r) d(mu) = {mu * 0.5 * dn}")
