"""Concave-gauge penalty family driving the affine scaling solver.

For r in (0, 1) the gauge is xi_r(x) = (sum x_i^r + sum_{i in I}(u_i-x_i)^r)^(1/r)
on the box 0 <= x, x_I <= u_I (with -inf off it), the penalty is
g_r(x) = -(1/r) xi_r(x)^r, and the penalized objective is
F(x) = <c, x> + mu * g_r(x).  These are finite on the boundary: it is the
gradient, not the value, that blows up there, which is what keeps iterates
interior.  At r = 0 the gauge degenerates to the normalized geometric mean
and the scaling diagonal to the classical affine scaling weights; both
limits are implemented directly.

The box set I and u_I belong to the LP: ``StandardLP`` derives them once
from its upper bounds, and ``GaugeParams`` holds the LP's own read-only
``bounded`` and ``upper_I`` with r, so nothing here derives them again.

``scaling_diagonals`` returns H's diagonal only, all the solver reads; the
gradient diagonal g lives in ``penalty_gradient``.  Both form the slack
u_I - x_I and its power only when the LP has upper-bounded columns
(``upper_I.size``); for an LP without them, every LP of the netlib corpus,
the pass is x's power and the clamp, and a boxed LP runs the same formulas
with the box terms added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLAMP_LO = 1e-32
CLAMP_HI = 1e32


class RZeroUnsupported(Exception):
    pass


class NotInterior(Exception):
    pass


@dataclass
class GaugeParams:
    """Penalty exponent r in [0, 1) plus the box set of the LP.

    ``bounded`` indexes the set I and ``upper_I`` holds u_I, in that order:
    for an LP, its own ``StandardLP.bounded`` and ``StandardLP.upper_I``,
    held by reference.  With no upper bounds both are empty.  The two must
    have one length (``ValueError``, naming both).
    """

    r: float
    bounded: np.ndarray
    upper_I: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r must lie in [0, 1), got {self.r}")
        if len(self.bounded) != len(self.upper_I):
            raise ValueError(
                f"bounded has {len(self.bounded)} entries and upper_I {len(self.upper_I)}; they must match"
            )


@dataclass
class ScalingDiagonals:
    """Diagonal h of the penalty Hessian H at an interior point.

    For j outside I: h_j = x_j^(r-2); inside I the mirrored slack term
    (u_j - x_j)^(r-2) is added.  Entries are clamped into [1e-32, 1e32] so
    that downstream squaring stays within double range; ``clamp_events``
    counts how many were touched.  The gradient diagonal g is not here:
    ``penalty_gradient`` computes it.
    """

    h: np.ndarray
    clamp_events: int


def _in_domain(x, p):
    if np.any(x < 0):
        return False
    return not np.any(p.upper_I - x[p.bounded] < 0)


def xi_r(x: np.ndarray, p: GaugeParams) -> float:
    """Gauge value; -inf off the box.  Uses the geometric-mean form at r=0."""
    x = np.asarray(x, dtype=float)
    if not _in_domain(x, p):
        return -np.inf
    slack = p.upper_I - x[p.bounded]
    if p.r == 0.0:
        vals = np.concatenate([x, slack])
        if np.any(vals == 0.0):
            return 0.0
        return float(np.exp(np.mean(np.log(vals))))
    total = np.sum(x**p.r) + np.sum(slack**p.r)
    return float(total ** (1.0 / p.r))


def penalty_g_r(x: np.ndarray, p: GaugeParams) -> float:
    """Penalty value -(1/r) xi_r(x)^r; +inf off the box."""
    if p.r == 0.0:
        raise RZeroUnsupported("the penalty value is undefined at r = 0")
    x = np.asarray(x, dtype=float)
    if not _in_domain(x, p):
        return np.inf
    slack = p.upper_I - x[p.bounded]
    return float(-(np.sum(x**p.r) + np.sum(slack**p.r)) / p.r)


def penalized_objective(x: np.ndarray, c: np.ndarray, mu: float, p: GaugeParams) -> float:
    g = penalty_g_r(x, p)
    if np.isinf(g):
        return np.inf
    return float(c @ x) + mu * g


def _wall_powers(x, p: GaugeParams, k: float):
    """x^(r-k) and (u_I - x_I)^(r-k) at a strictly interior x; the second is None when I is empty."""
    x = np.asarray(x, dtype=float)
    slack = p.upper_I - x[p.bounded] if p.upper_I.size else None
    # fmin skips NaN as the comparison x <= 0 does, so a NaN entry never trips
    # the test and a wall entry always does, whatever else the array holds
    if np.fmin.reduce(x, initial=np.inf) <= 0 or (
        slack is not None and np.fmin.reduce(slack, initial=np.inf) <= 0
    ):
        raise NotInterior("point must satisfy 0 < x and x_I < u_I strictly")
    # near a wall a power may overflow to inf; every caller's clip bounds it
    with np.errstate(over="ignore"):
        return x ** (p.r - k), None if slack is None else slack ** (p.r - k)


def scaling_diagonals(x: np.ndarray, p: GaugeParams) -> ScalingDiagonals:
    """Hessian diagonal h at a strictly interior x; valid for every r in [0, 1)."""
    h, slack_h = _wall_powers(x, p, 2.0)
    if slack_h is not None:
        h[p.bounded] += slack_h
    clamped = np.minimum(np.maximum(h, CLAMP_LO), CLAMP_HI)  # np.clip's result, with less call overhead
    return ScalingDiagonals(h=clamped, clamp_events=int(np.count_nonzero(clamped != h)))


def penalty_gradient(x: np.ndarray, c: np.ndarray, mu: float, p: GaugeParams) -> np.ndarray:
    """grad F = c - mu * G e; g_j = x_j^(r-1), less (u_j - x_j)^(r-1) on I, clamped to +-1e32."""
    g, slack_g = _wall_powers(x, p, 1.0)
    if slack_g is not None:
        g[p.bounded] -= slack_g
    return np.asarray(c, dtype=float) - mu * np.clip(g, -CLAMP_HI, CLAMP_HI)


def penalty_hessian_diag(x: np.ndarray, mu: float, p: GaugeParams) -> np.ndarray:
    """diag of hess F = mu (1 - r) H."""
    return mu * (1.0 - p.r) * scaling_diagonals(x, p).h
