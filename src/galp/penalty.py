"""Concave-gauge penalty family driving the affine scaling solver.

For r in (0, 1) the gauge is xi_r(x) = (sum x_i^r + sum_{i in I}(u_i-x_i)^r)^(1/r)
on the box 0 <= x, x_I <= u_I (with -inf off it), the penalty is
g_r(x) = -(1/r) xi_r(x)^r, and the penalized objective is
F(x) = <c, x> + mu * g_r(x).  These are finite on the boundary: it is the
gradient, not the value, that blows up there, which is what keeps iterates
interior.  At r = 0 the gauge degenerates to the normalized geometric mean
and the scaling diagonals to the classical affine scaling weights; both
limits are implemented directly.
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
    """Penalty exponent r in [0, 1) plus the upper-bound data of the LP."""

    r: float
    upper: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r must lie in [0, 1), got {self.r}")
        self.upper = np.asarray(self.upper, dtype=float)
        self.bounded = np.isfinite(self.upper)


@dataclass
class ScalingDiagonals:
    """Diagonals of the penalty gradient/Hessian at an interior point.

    For j outside I: h_j = x_j^(r-2), g_j = x_j^(r-1); inside I the mirrored
    slack terms (u_j - x_j) are added to h_j and subtracted from g_j.
    Entries are clamped into [1e-32, 1e32] so that downstream squaring stays
    within double range; ``clamp_events`` counts how many were touched.
    """

    g: np.ndarray
    h: np.ndarray
    clamp_events: int


def _in_domain(x, p):
    if np.any(x < 0):
        return False
    return not np.any(p.upper[p.bounded] - x[p.bounded] < 0)


def xi_r(x: np.ndarray, p: GaugeParams) -> float:
    """Gauge value; -inf off the box.  Uses the geometric-mean form at r=0."""
    x = np.asarray(x, dtype=float)
    if not _in_domain(x, p):
        return -np.inf
    slack = p.upper[p.bounded] - x[p.bounded]
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
    slack = p.upper[p.bounded] - x[p.bounded]
    return float(-(np.sum(x**p.r) + np.sum(slack**p.r)) / p.r)


def penalized_objective(x: np.ndarray, c: np.ndarray, mu: float, p: GaugeParams) -> float:
    g = penalty_g_r(x, p)
    if np.isinf(g):
        return np.inf
    return float(c @ x) + mu * g


def scaling_diagonals(x: np.ndarray, p: GaugeParams) -> ScalingDiagonals:
    """Diagonals g, h at a strictly interior x; valid for every r in [0, 1)."""
    x = np.asarray(x, dtype=float)
    slack = p.upper[p.bounded] - x[p.bounded]
    if np.any(x <= 0) or np.any(slack <= 0):
        raise NotInterior("point must satisfy 0 < x and x_I < u_I strictly")
    h = x ** (p.r - 2.0)
    g = x ** (p.r - 1.0)
    h[p.bounded] += slack ** (p.r - 2.0)
    g[p.bounded] -= slack ** (p.r - 1.0)
    clamped_h = np.clip(h, CLAMP_LO, CLAMP_HI)
    clamped_g = np.clip(g, -CLAMP_HI, CLAMP_HI)
    events = int(np.count_nonzero(clamped_h != h) + np.count_nonzero(clamped_g != g))
    return ScalingDiagonals(g=clamped_g, h=clamped_h, clamp_events=events)


def penalty_gradient(x: np.ndarray, c: np.ndarray, mu: float, p: GaugeParams) -> np.ndarray:
    """grad F = c - mu * G e."""
    sd = scaling_diagonals(x, p)
    return np.asarray(c, dtype=float) - mu * sd.g


def penalty_hessian_diag(x: np.ndarray, mu: float, p: GaugeParams) -> np.ndarray:
    """diag of hess F = mu (1 - r) H."""
    sd = scaling_diagonals(x, p)
    return mu * (1.0 - p.r) * sd.h
