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
one place (``_state``).  The gap alone triggers reprojection of the descent
direction: once the entering point's Rgap is below REPROJECT_GAP, which
costs one more solve with the pass's factor.

The start x2 is the minimum-norm solution of A x = b shifted by delta
(``starting_point_x2``), with every boxed coordinate then clipped into
[m_j, u_j - m_j], m_j = min(u_j / 2, delta): at least delta from both walls,
and at the box centre u_j / 2 where the box is narrower than 2 delta.  Each
boxed coordinate's term of the gauge, x^r + (u - x)^r, is largest at that
centre, where its share of H, x^(r-2) + (u - x)^(r-2), is least.  A clip
to a fixed fraction of u_j, such as [0.01 u, 0.99 u], leaves most of
box-heavy's coordinates about 1% from a wall, and then only 4 of its 18
solves (seeds 0-5 at r 0, 0.2 and 0.5) end Optimal within 1e-6 of HiGHS,
in 3977 iterations against 442 from x2.  Columns without an upper bound
start at xhat + delta.  The column-norm start x1 = n / ||A_j||
(``starting_point_x1``) replaces x2 only where it is the more interior of
the two on x2's scale: min x1 >= max(min x2, 1) and min x1 <= max x2.  x1
ignores b and grows with n, so a start that lies wholly above x2 is only a
larger one: sparse-large's x1 lies in about [658, 1800] against x2 in
[0.70, 4.4], and its four LPs take 318 iterations per pass from x1 against
231 from x2.

Each quantity is computed once, at the scope where it changes.  Per LP: the
start, which does not depend on r (``choose_start`` keeps it as
``StandardLP.start``; it is x1 wherever x2's factor fails), the assembly
plan of A H^-1 A^t (``StandardLP.plan``), and Rf's denominator
1 + ||b||_inf (``StandardLP.b_scale``), each built on the LP's first solve,
and the products A x and A^t y (``lp.matvec``, ``lp.rmatvec``), bound to
scipy's compiled kernels when the LP is constructed, which also derives the
box set I and u_I (``lp.bounded``, ``lp.upper_I``) and sets m and n as plain
ints.  The penalty parameters are per LP too: ``GaugeParams`` holds the
LP's own ``bounded`` and ``upper_I`` by reference, and takes only r from the
solve's config.  The box terms, w_I in the pass and <u_I, w_I> in the gap,
are formed only when I is nonempty (``lp.upper_I.size``): for an LP without
upper bounds w stays zero and the gap has no box term, so the iterates are
the general formulas' bit for bit.  Every reduction on the path calls
``np.minimum.reduce`` or ``np.maximum.reduce`` directly, not numpy's Python
wrappers behind ``ndarray.min`` and ``max``.  Per solve: the bound of the
sign safeguard.  Per point: whoever creates the point (the start, or
``iterate_once``) forms b - A x once; it gives both Rf and the feasibility
right-hand side of the point's pass.

The feasibility move uses step factor STEP_AGGRESSIVE while the residual is
large and STEP_CONSERVATIVE once it is small; the descent move swaps the two
factors.  Reported duals therefore lag the reported primal point by one move.
Every LP, boxed or not, takes the same two linear moves.

An LP with no rows (m = 0) or no columns (n = 0) has no normal matrix;
``solve`` returns its exact answer at once (``_exact``).

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
from .directions import descent_direction, feasibility_direction, max_step, reproject
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
    INFEASIBLE = "Infeasible"
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
    """Column-norm heuristic start, pushed toward the cheap side of the box.

    A column whose squares overflow (an entry above about 1.3e154) has its
    norm taken again with the column scaled by its largest |entry|, so the
    norm is finite wherever it is representable and x1_j > 0; every other
    norm is the plain one.  The overflow raises no warning.
    """
    A = lp.A
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=0)).ravel())
        for j in np.flatnonzero(np.isinf(norms)):
            col = A.data[A.indptr[j]:A.indptr[j + 1]]
            scale = np.abs(col).max()
            norms[j] = scale * np.sqrt(np.sum((col / scale) ** 2))
    denom = np.maximum(norms, 1.0)  # zero columns fall back to n/1
    base = lp.n / denom
    frac = np.where(lp.c < 0, 0.9, 0.1)
    return np.minimum(base, frac * lp.upper)


def starting_point_x2(lp: StandardLP) -> np.ndarray:
    """Minimum-norm solution of Ax = b shifted by delta, with boxed columns off both walls.

    Every coordinate is xhat + delta; a boxed one is then clipped into
    [m_j, u_j - m_j] with m_j = min(u_j / 2, delta), so it starts at least
    delta from either wall, and at the centre u_j / 2 of a box narrower than
    2 delta.  That centre is where the box's mirrored gauge term
    x^r + (u - x)^r is largest and h_j = x^(r-2) + (u - x)^(r-2) least.
    """
    F = linalg.factor_normal(lp.plan, np.ones(lp.n))
    xhat = lp.rmatvec(linalg.solve(F, lp.b))
    xnorm = np.maximum.reduce(np.abs(xhat), initial=0.0)
    delta = max(-1.5 * float(np.minimum.reduce(xhat, initial=0.0)), 0.01 * (1.0 + xnorm))
    x = xhat + delta
    idx = lp.bounded
    margin = np.minimum(0.5 * lp.upper_I, delta)
    x[idx] = np.clip(x[idx], margin, lp.upper_I - margin)
    return x


def choose_start(lp: StandardLP) -> np.ndarray:
    """x2 unless x1 is the more interior on x2's scale, or x1 where x2's factor fails.

    x1 is kept when min x1 >= max(min x2, 1) and min x1 <= max x2.  x1 =
    n / ||A_j|| ignores b and grows with n, so a larger min x1 alone does not
    make it more interior: where x1 lies wholly above x2, as on every
    sparse-large LP, it is only too large, and x2 is taken.  Taking x2
    everywhere would cost the corpus 849 -> 869 iterations, on blend and
    sc50a, where x1 overlaps x2 and is kept.

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
        x0 = x2 if np.minimum.reduce(x2) > lo1 or lo1 < 1.0 or lo1 > np.maximum.reduce(x2) else x1
        x0.flags.writeable = False
        lp.start = x0
    return lp.start.copy()


class PointPass(NamedTuple):
    """One pass at a point x: H^-1, the factor of A H^-1 A^t, the feasibility
    direction dx, the descent direction d, the dual estimates (y, w, s) and
    the clamp count of H."""

    hinv: np.ndarray
    F: linalg.CholeskyFactor
    dx: np.ndarray
    d: np.ndarray
    y: np.ndarray
    w: np.ndarray
    s: np.ndarray
    clamps: int


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
    return PointPass(hinv, F, dx, d, y, w, reduced + w, sd.clamp_events)


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
    if rec.rgap < REPROJECT_GAP:
        d = reproject(d, lp, pt.F, pt.hinv)

    infeasible = rec.rf > cfg.epsilon

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
    x = x + t_desc * d

    return _state(lp, x, lp.b - lp.matvec(x), pt, rec.iteration + 1, step_feas=t_feas, step_desc=t_desc)


def _exact(lp: StandardLP) -> tuple[IterateState, Status]:
    """The exact answer of an LP with no rows (m = 0) or no columns (n = 0), which has no normal matrix to factor.

    x_j = u_j where c_j < 0 and u_j is finite, else 0, and the duals are
    the pass's formulas there: w_I = max(-c_I, 0), s = c + w, and y =
    sign(b_i) e_i at the first nonzero b_i, else 0.  Such a b_i needs n = 0,
    where A x = b reads 0 = b: the LP is Infeasible, and y is an exact
    Farkas ray (A^t y is empty, <b, y> = |b_i| > 0).  Otherwise the LP is
    Unbounded when some c_j < 0 has u_j = +inf, whose x_j stays 0, else Optimal.
    """
    idx = lp.bounded
    w = np.zeros(lp.n)
    w[idx] = np.maximum(-lp.c[idx], 0.0)
    x = np.zeros(lp.n)
    x[idx] = np.where(lp.c[idx] < 0, lp.upper_I, 0.0)
    first = np.flatnonzero(lp.b)[:1]  # the first nonzero b_i, or none
    y = np.zeros(lp.m)
    y[first] = np.sign(lp.b[first])
    pt = PointPass(None, linalg.CholeskyFactor(np.zeros((0, 0)), 0.0), None, None, y, w, lp.c + w, 0)
    ray = np.count_nonzero((lp.c < 0) & (lp.upper == np.inf))
    status = Status.INFEASIBLE if first.size else Status.UNBOUNDED if ray else Status.OPTIMAL
    return _state(lp, x, lp.b - lp.matvec(x), pt), status


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
    """Run the full affine scaling iteration; never raises past this API.

    The statuses are Optimal, IterationLimit, Unbounded, Infeasible (only on
    an LP with rows but no columns, from ``_exact``, with its Farkas ray as
    y) and NumericalFailure; each leaves through the one report at the end."""
    cfg = cfg or SolverConfig()
    p = GaugeParams(cfg.r, lp.bounded, lp.upper_I)
    safeguard = -DUAL_SAFEGUARD * (1.0 + np.maximum.reduce(np.abs(lp.c), initial=0.0))
    trace: list[TraceRecord] = []

    state = None
    with np.errstate(over="ignore"):  # overflow is reported as a status, not warned about
        try:
            if lp.m == 0 or lp.n == 0:
                state, status = _exact(lp)
                trace.append(state.record)
            else:
                x0 = choose_start(lp)
                resid = lp.b - lp.matvec(x0)
                pt = recover_duals(lp, x0, p, resid)
                state = _state(lp, x0, resid, pt)
                trace.append(state.record)
                status = Status.OPTIMAL
                while not _converged(state, cfg, safeguard):
                    if state.record.iteration >= cfg.max_iterations:
                        status = Status.ITERATION_LIMIT
                        break
                    if state.record.iteration > 0:  # the start's pass serves iteration 1
                        pt = recover_duals(lp, state.x, p, state.resid)
                    state = iterate_once(state, lp, cfg, pt)
                    trace.append(state.record)
        except UnboundedDirection:
            status = Status.UNBOUNDED
        except (linalg.FactorizationFailed, linalg.NonFiniteInput, NotInterior):
            status = Status.NUMERICAL_FAILURE
            if state is None:  # no point reached: NaN arrays and record, rf an np.float64 as on every report
                rec = TraceRecord(0, math.nan, np.float64(math.nan), math.nan, 0.0, 0.0, math.nan, 0, 0.0)
                state = IterateState(*(np.full(k, np.nan) for k in (lp.n, lp.m, lp.n, lp.n)), rec, None)
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
