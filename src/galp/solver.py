"""Main affine scaling loop: starting point, combined feasibility/descent
steps, dual recovery, stopping, and per-iteration trace capture.

Each point gets one pass (``recover_duals``): it scales by H at x_k, factors
A H^-1 A^t, and solves for the descent right-hand side A H^-1 c and the
feasibility right-hand side b - A x_k together, in one two-column solve.
The feasibility direction, the descent direction and the dual estimates
(y, w, s) all come off that solve.  The pass serves the feasibility and
descent moves of the step from x_k; the start's pass serves the first
iteration whole, and the final point gets none.  Each point's state, with
its trace record and its expected relative duality gap Rgap, is built in
one place (``_state``).  On the linear path the gap alone triggers
reprojection of the descent direction: once the entering point's Rgap is
below REPROJECT_GAP, which costs one more solve with the pass's factor; an
arc iteration (below) always reprojects, in the arc's own solve.

Each quantity is computed once, at the scope where it changes.  Per LP: the
start, which does not depend on r (``choose_start`` keeps it as
``StandardLP.start``; it is x1 wherever x2's factor fails), the assembly
plan of A H^-1 A^t (``StandardLP.plan``), and Rf's denominator
1 + ||b||_inf (``StandardLP.b_scale``), each built on the LP's first solve,
and the products A x and A^t y (``lp.matvec``, ``lp.rmatvec``), bound to
scipy's compiled kernels when the LP is constructed, which also gathers u_I
(``lp.upper_I``) and sets m and n as plain ints.  The box terms, w_I in the
pass and <u_I, w_I> in the gap, are formed only when I is nonempty
(``lp.upper_I.size``): for an LP without upper bounds w stays zero and the
gap has no box term, so the iterates are the general formulas' bit for bit.
Every reduction on the path calls ``np.minimum.reduce`` or
``np.maximum.reduce`` directly, not numpy's Python wrappers behind
``ndarray.min`` and ``max``.  Per solve: the penalty
parameters and the bound of the sign safeguard.  Per point: whoever creates
the point (the start, or ``iterate_once``) forms b - A x once; it gives both
Rf and the feasibility right-hand side of the point's pass.

The feasibility move uses step factor STEP_AGGRESSIVE while the residual is
large and STEP_CONSERVATIVE once it is small; the descent move swaps the two
factors.  Reported duals therefore lag the reported primal point by one move.

On an LP with upper bounds, the descent move may follow a second-order arc
of the affine scaling trajectory x' = d(x) (Adler & Monteiro, Math. Program.
50, 1991; Karmarkar, Lagarias, Slutsman & Wang, AT&T Tech. J. 68(3), 1989).
It runs once the entering point is feasible (Rf <= epsilon), and only
there.  The pass carries the curvature weight x^(r-3) - [(u - x)^(r-3) on
I] (``ScalingDiagonals.curvature``, None when I is empty, which is the one
test a box-free LP pays); with it, g = H^-1 hdot d, hdot = (r - 2) weight d,
and d2 = -g + H^-1 A^t ydot with (A H^-1 A^t) ydot = A g, the derivative of
d along d, so A d2 = 0.  A g is a second column beside reprojection's A d
in one two-column solve with the pass's factor (``arc_direction``): an arc
iteration always reprojects d, and makes no extra solve call.  The arc
x + t d + (t^2/2) d2 is taken at 0.95 of the least t at which it meets a
wall (``arc_step``), and replaces the linear move only where
t <c, d> + (t^2/2) <c, d2> is below the linear move's t_lin <c, d>; a
non-finite <c, d2> keeps the linear move.  The trace's step_desc is then
the arc's t.  On perfbench's box-heavy LPs the arc takes 2.5 times fewer
iterations, and every solve ends Optimal within 1e-6 of HiGHS's objective.

An LP with no rows (m = 0) has no normal matrix; ``solve`` returns its
exact answer at once (``_rowless``).

Stopping declares optimality only when the feasibility measure Rf, the
expected relative duality gap Rgap, and a sign safeguard on s all hold;
stopping on min(Rf, Rgap) alone would accept feasible-but-unconverged
points (Rgap can transiently vanish away from the optimum).

``solve`` runs under one ``np.errstate(over="ignore")``: an overflow on the
way ends in NonFiniteInput, a failed factor or a NaN step, and is reported
as a status, so numpy's warning about it is not raised as well.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .directions import arc_direction, arc_step, descent_direction, feasibility_direction, max_step, reproject
from .model import StandardLP, primal_infeasibility
from .penalty import GaugeParams, NotInterior, scaling_diagonals


STEP_AGGRESSIVE = 0.95
STEP_CONSERVATIVE = 0.65
REPROJECT_GAP = 1e-3  # reproject the descent direction once rgap is below this
DUAL_SAFEGUARD = 1e-6  # relative tolerance on negative reduced costs s


class Status(enum.Enum):
    OPTIMAL = "Optimal"
    ITERATION_LIMIT = "IterationLimit"
    UNBOUNDED = "Unbounded"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class SolverConfig:
    r: float = 0.2
    epsilon: float = 1e-8
    max_iterations: int = 300

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError("r must lie in [0, 1)")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass
class TraceRecord:
    iteration: int
    objective: float
    rf: float
    rgap: float
    step_feas: float
    step_desc: float
    min_x: float
    clamps: int
    regularization: float


@dataclass
class IterateState:
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    s: np.ndarray
    record: TraceRecord
    resid: np.ndarray  # b - A x: rf's residual, and the feasibility right-hand side of x's pass


@dataclass
class SolveReport:
    status: Status
    iterations: int
    objective: float
    objective_original: float
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    w: np.ndarray
    rf: float
    rgap: float
    trace: list = field(default_factory=list)


class UnboundedDirection(Exception):
    pass


def starting_point_x1(lp: StandardLP) -> np.ndarray:
    """Column-norm heuristic start, pushed toward the cheap side of the box."""
    norms = np.sqrt(np.asarray(lp.A.multiply(lp.A).sum(axis=0)).ravel())
    denom = np.maximum(norms, 1.0)  # zero columns fall back to n/1
    base = lp.n / denom
    frac = np.where(lp.c < 0, 0.9, 0.1)
    return np.minimum(base, frac * lp.upper)


def starting_point_x2(lp: StandardLP) -> np.ndarray:
    """Minimum-norm solution of Ax = b shifted into the open box."""
    F = linalg.factor_normal(lp.plan, np.ones(lp.n))
    xhat = lp.rmatvec(linalg.solve(F, lp.b))
    xnorm = np.maximum.reduce(np.abs(xhat), initial=0.0)
    delta = max(-1.5 * float(np.minimum.reduce(xhat, initial=0.0)), 0.01 * (1.0 + xnorm))
    x = xhat + delta
    idx = lp.bounded
    x[idx] = np.clip(x[idx], 0.01 * lp.upper_I, 0.99 * lp.upper_I)
    return x


def choose_start(lp: StandardLP) -> np.ndarray:
    """x2 unless x1 is the more interior and has min x1 >= 1, or x1 where x2's factor fails.

    The start does not depend on r, so it is computed on an LP's first call
    and kept, read-only, as ``lp.start``; each call returns a fresh copy.
    """
    if lp.start is None:
        x1 = starting_point_x1(lp)
        try:
            x2 = starting_point_x2(lp)
        except (linalg.FactorizationFailed, linalg.NonFiniteInput):
            x2 = x1
        lo1 = np.minimum.reduce(x1)
        x0 = x2 if np.minimum.reduce(x2) > lo1 or lo1 < 1.0 else x1
        x0.flags.writeable = False
        lp.start = x0
    return lp.start.copy()


class PointPass(NamedTuple):
    """One pass at a point x: H^-1, the factor of A H^-1 A^t, the feasibility
    direction dx, the descent direction d, the dual estimates (y, w, s), the
    clamp count of H and the arc's curvature weight (None when I is empty)."""

    hinv: np.ndarray
    F: linalg.CholeskyFactor
    dx: np.ndarray
    d: np.ndarray
    y: np.ndarray
    w: np.ndarray
    s: np.ndarray
    clamps: int
    curvature: np.ndarray | None


def recover_duals(lp: StandardLP, x, p: GaugeParams, resid) -> PointPass:
    """The pass at x: scale and factor there, then one two-column solve serves both moves.

    ``resid`` is b - A x, formed by whoever made x.  The descent column is y;
    w_I = -(x_I / u_I) s~_I and s = s~ + w, with s~ = c - A^t y the reduced costs.
    """
    sd = scaling_diagonals(x, p)
    hinv = 1.0 / sd.h
    F = linalg.factor_normal(lp.plan, hinv)
    # Fortran order, as dpotrs takes and returns it: each column of v is
    # contiguous, as a one-column solve's result is, so b @ y sums in the
    # same order
    rhs = np.empty((lp.m, 2), order="F")
    rhs[:, 0] = lp.matvec(hinv * lp.c)
    rhs[:, 1] = resid
    v = linalg.solve(F, rhs)
    y = v[:, 0]
    d, reduced = descent_direction(lp, hinv, y)
    dx = feasibility_direction(lp, hinv, v[:, 1])
    w = np.zeros(lp.n)
    if lp.upper_I.size:
        idx = lp.bounded
        w[idx] = -(x[idx] / lp.upper_I) * reduced[idx]
    # the add stays when I is empty: it turns each -0.0 of s~ into the +0.0 s reports
    return PointPass(hinv, F, dx, d, y, w, reduced + w, sd.clamp_events, sd.curvature)


def _state(lp: StandardLP, x, resid, pt: PointPass, iteration=0, step_feas=0.0, step_desc=0.0) -> IterateState:
    """The point x with its residual ``resid`` = b - A x and its trace record.

    The duals (y, w, s), the clamp count and the regularization come from
    ``pt``, the pass that served the point.  ``rgap`` is the expected
    relative duality gap (<c,x> - <b,y> + <u_I, w_I>) / (|<c,x>| + 1).
    """
    cx = float(lp.c @ x)
    gap = cx - float(lp.b @ pt.y)
    if lp.upper_I.size:
        gap += float(lp.upper_I @ pt.w[lp.bounded])
    record = TraceRecord(
        iteration=iteration,
        objective=cx,
        rf=primal_infeasibility(lp, x, resid),
        rgap=gap / (abs(cx) + 1.0),
        step_feas=step_feas,
        step_desc=step_desc,
        min_x=float(np.minimum.reduce(x)) if lp.n else 0.0,
        clamps=pt.clamps,
        regularization=pt.F.rho,
    )
    return IterateState(x, pt.y, pt.w, pt.s, record, resid)


def iterate_once(state: IterateState, lp: StandardLP, cfg: SolverConfig, pt: PointPass) -> IterateState:
    """One combined feasibility + descent pass of the main loop.

    ``pt`` is ``recover_duals`` at ``state.x``; its duals, taken before the
    move, go to the new state.
    """
    x = state.x
    rec = state.record

    d = pt.d
    infeasible = rec.rf > cfg.epsilon
    arc = pt.curvature is not None and not infeasible
    if arc:
        with np.errstate(invalid="ignore"):  # a weight at +-inf may make d2 NaN, which keeps the linear move
            g = ((cfg.r - 2.0) * pt.hinv) * pt.curvature * d * d
            d, d2 = arc_direction(d, g, lp, pt.F, pt.hinv)
    elif rec.rgap < REPROJECT_GAP:
        d = reproject(d, lp, pt.F, pt.hinv)

    t_feas = (STEP_AGGRESSIVE if infeasible else STEP_CONSERVATIVE) * max_step(
        x, lp.upper, pt.dx, cap=1.0
    )
    x = x + t_feas * pt.dx

    tmax = max_step(x, lp.upper, d, cap=None)
    if math.isinf(tmax) and float(lp.c @ d) < 0:
        if not infeasible:
            raise UnboundedDirection("descent ray is unconstrained and strictly decreasing")
        t_desc = 0.0  # cannot certify unboundedness at an infeasible point; skip the move
    else:
        t_desc = (STEP_CONSERVATIVE if infeasible else STEP_AGGRESSIVE) * (
            tmax if math.isfinite(tmax) else 0.0
        )
    if arc and math.isfinite(t_desc):
        # the arc x + t d + (t^2/2) d2 = x + t (d + (t/2) d2), where it lowers
        # <c, x> more than the linear move; a non-finite <c, d2> keeps the line
        cd, cd2 = float(lp.c @ d), float(lp.c @ d2)
        t = STEP_AGGRESSIVE * arc_step(x, lp.upper, d, d2) if math.isfinite(cd2) else math.inf
        if math.isfinite(t) and t * cd + 0.5 * t * t * cd2 < t_desc * cd:
            t_desc, d = t, d + (0.5 * t) * d2
    x = x + t_desc * d

    return _state(lp, x, lp.b - lp.matvec(x), pt, rec.iteration + 1, step_feas=t_feas, step_desc=t_desc)


def _rowless(lp: StandardLP) -> tuple[IterateState, Status]:
    """The exact answer of an LP with no rows (m = 0), which has no normal matrix to factor.

    x_j = u_j where c_j < 0 and u_j is finite, else 0; the LP is Unbounded
    when some c_j < 0 has u_j = +inf, whose x_j is left at 0.  The duals are
    those of the pass's formulas at that point: y is empty, w_I = max(-c_I, 0)
    and s = c + w.
    """
    idx = lp.bounded
    w = np.zeros(lp.n)
    w[idx] = np.maximum(-lp.c[idx], 0.0)
    x = np.zeros(lp.n)
    x[idx] = np.where(lp.c[idx] < 0, lp.upper_I, 0.0)
    pt = PointPass(None, linalg.CholeskyFactor(np.zeros((0, 0)), 0.0), None, None, np.zeros(0), w, lp.c + w, 0, None)
    ray = np.count_nonzero((lp.c < 0) & (lp.upper == np.inf))
    return _state(lp, x, lp.b - lp.matvec(x), pt), Status.UNBOUNDED if ray else Status.OPTIMAL


def _converged(state: IterateState, cfg: SolverConfig, safeguard: float) -> bool:
    """The stopping test; ``safeguard`` is -DUAL_SAFEGUARD * (1 + ||c||_inf), the least s_j accepted."""
    # |rgap|: a strongly negative gap means the dual estimate is infeasible
    # and the point may be far from optimal even though rf is tiny
    return (
        state.record.rf <= cfg.epsilon
        and abs(state.record.rgap) <= cfg.epsilon
        and float(np.minimum.reduce(state.s, initial=0.0)) >= safeguard
    )


def solve(lp: StandardLP, cfg: SolverConfig | None = None, offset: float = 0.0) -> SolveReport:
    """Run the full affine scaling iteration; never raises past this API."""
    cfg = cfg or SolverConfig()
    p = GaugeParams(r=cfg.r, upper=lp.upper)
    safeguard = -DUAL_SAFEGUARD * (1.0 + np.maximum.reduce(np.abs(lp.c), initial=0.0))
    trace: list[TraceRecord] = []

    def report(state, status):
        rec = state.record
        return SolveReport(
            status=status,
            iterations=rec.iteration,
            objective=rec.objective,
            objective_original=rec.objective + offset,
            x=state.x,
            y=state.y,
            s=state.s,
            w=state.w,
            rf=rec.rf,
            rgap=rec.rgap,
            trace=trace,
        )

    state = None
    with np.errstate(over="ignore"):  # overflow is reported as a status, not warned about
        try:
            if lp.m == 0:
                state, status = _rowless(lp)
                trace.append(state.record)
                return report(state, status)
            x0 = choose_start(lp)
            resid = lp.b - lp.matvec(x0)
            pt = recover_duals(lp, x0, p, resid)
            state = _state(lp, x0, resid, pt)
            trace.append(state.record)

            while not _converged(state, cfg, safeguard):
                if state.record.iteration >= cfg.max_iterations:
                    return report(state, Status.ITERATION_LIMIT)
                if state.record.iteration > 0:  # the start's pass serves iteration 1
                    pt = recover_duals(lp, state.x, p, state.resid)
                state = iterate_once(state, lp, cfg, pt)
                trace.append(state.record)
            return report(state, Status.OPTIMAL)

        except UnboundedDirection:
            return report(state, Status.UNBOUNDED)
        except (linalg.FactorizationFailed, linalg.NonFiniteInput, NotInterior):
            if state is None:  # no point reached: NaN arrays and record, rf an np.float64 as on every report
                rec = TraceRecord(0, math.nan, np.float64(math.nan), math.nan, 0.0, 0.0, math.nan, 0, 0.0)
                state = IterateState(*(np.full(k, np.nan) for k in (lp.n, lp.m, lp.n, lp.n)), rec, None)
            return report(state, Status.NUMERICAL_FAILURE)
