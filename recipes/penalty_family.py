"""
The concave gauge penalty family
================================

For r in (0, 1) the penalty g_r(x) = -(1/r) xi_r(x)^r stays finite on the
boundary of the positive orthant while its gradient blows up there: a
"differential barrier".  At r = 0 the gauge becomes a normalized geometric
mean and only the scaling diagonals survive; the classic affine scaling
weights x^-2 are the r = 0 member of the family.
"""

import numpy as np

from galp import GaugeParams, scaling_diagonals, xi_r
from galp.penalty import penalty_g_r, penalty_gradient

no_bounds = np.full(2, np.inf)

# the gauge is positively homogeneous of degree 1
p = GaugeParams(r=0.5, upper=no_bounds)
x = np.array([1.0, 4.0])
print("xi_0.5(1, 4) =", xi_r(x, p))
print("xi_0.5(2, 8) =", xi_r(2 * x, p), "(doubles with x)")

# finite value, unbounded slope at the wall
for t in (1.0, 1e-2, 1e-4, 1e-6):
    point = np.array([t, 1.0])
    value = penalty_g_r(point, p)
    slope = penalty_gradient(point, np.zeros(2), 1.0, p)[0]
    print(f"x1 = {t:8.0e}   g_r = {value:10.6f}   dg/dx1 = {slope:12.3e}")


def g_diagonal(x, p):
    """The gradient diagonal g, read off grad F = c - mu * G e at c = 0, mu = 1.

    Subtracting from 0.0 rather than negating prints a zero entry as 0, not -0.
    """
    return 0.0 - penalty_gradient(x, np.zeros(len(x)), 1.0, p)


# scaling diagonals across r at the same point; r = 0 gives x^-2 and x^-1
print("\nscaling diagonals at x = (0.5, 2.0):")
x = np.array([0.5, 2.0])
for r in (0.0, 0.2, 0.5, 0.8):
    p = GaugeParams(r=r, upper=no_bounds)
    h = scaling_diagonals(x, p).h
    print(f"  r = {r:3.1f}   h = {np.round(h, 4)}   g = {np.round(g_diagonal(x, p), 4)}")

# with an upper bound both walls contribute; at the midpoint the first-order
# term cancels
p = GaugeParams(r=0.0, upper=np.array([2.0, np.inf]))
x = np.array([1.0, 1.0])
print("\nmidpoint of [0, 2]:  h =", scaling_diagonals(x, p).h, " g =", g_diagonal(x, p))
