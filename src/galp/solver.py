"""Main affine scaling loop: starting point, combined feasibility/descent
steps, dual recovery, stopping, and per-iteration trace capture.

Each point is factored once: H^-1 and the factor of A H^-1 A^t at x_k
serve the dual estimates (y, w, s), the feasibility direction and the
descent direction of the step from x_k.  The start's factor serves the
first iteration; the final point is never factored.  Each point's state,
with its trace record, is built in one place (``_state``).  The penalty
parameters and the assembly plan of A H^-1 A^t are built once per solve.

The feasibility move uses step factor STEP_AGGRESSIVE while the residual is
large and STEP_CONSERVATIVE once it is small; the descent move swaps the two
factors.  Reported duals therefore lag the reported primal point by one move.

Stopping declares optimality only when the feasibility measure Rf, the
expected relative duality gap Rgap, and a sign safeguard on s all hold;
stopping on min(Rf, Rgap) alone would accept feasible-but-unconverged
points (Rgap can transiently vanish away from the optimum).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .directions import descent_direction, feasibility_direction, max_step, reproject
from .model import StandardLP, primal_infeasibility
from .penalty import GaugeParams, NotInterior, scaling_diagonals


STEP_AGGRESSIVE = 0.95
STEP_CONSERVATIVE = 0.65
REPROJECT_GAP = 1e-3  # reproject the descent direction once rgap is below this
REPROJECT_AFTER = 20  # ... or once this many iterations have run
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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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


def starting_point_x2(lp: StandardLP, plan: linalg.NormalPlan) -> np.ndarray:
    """Minimum-norm solution of Ax = b shifted into the open box."""
    F = linalg.factor(linalg.assemble_normal(plan, np.ones(lp.n)))
    xhat = lp.At @ linalg.solve(F, lp.b)
    xnorm = np.linalg.norm(xhat, np.inf) if lp.n else 0.0
    delta = max(-1.5 * float(xhat.min(initial=0.0)), 0.01 * (1.0 + xnorm))
    x = xhat + delta
    idx = lp.bounded
    x[idx] = np.clip(x[idx], 0.01 * lp.upper[idx], 0.99 * lp.upper[idx])
    return x


def choose_start(lp: StandardLP, plan: linalg.NormalPlan) -> np.ndarray:
    x1 = starting_point_x1(lp)
    x2 = starting_point_x2(lp, plan)
    if x2.min() > x1.min() or x1.min() < 1.0:
        return x2
    return x1


def _bound_duals(lp: StandardLP, x, reduced):
    """Dual estimates (w, s) at x from the reduced costs c - A^t y."""
    w = np.zeros(lp.n)
    idx = lp.bounded
    w[idx] = -(x[idx] / lp.upper[idx]) * reduced[idx]
    return w, reduced + w


def recover_duals(lp: StandardLP, x, hinv, F: linalg.CholeskyFactor):
    """Expected dual estimates (y, w, s) at the point x."""
    _, y, reduced = descent_direction(lp, hinv, F)
    return (y, *_bound_duals(lp, x, reduced))


def relative_gap(lp: StandardLP, x, y, w) -> float:
    """Expected relative duality gap (<c,x> - <b,y> + <u_I, w_I>) / (|<c,x>| + 1)."""
    cx = float(lp.c @ x)
    idx = lp.bounded
    gap = cx - float(lp.b @ y) + float(lp.upper[idx] @ w[idx])
    return gap / (abs(cx) + 1.0)


def _state(
    lp: StandardLP, x, y, w, s, iteration=0, clamps=0, rho=0.0, step_feas=0.0, step_desc=0.0
) -> IterateState:
    """The point x with duals (y, w, s), and its trace record."""
    record = TraceRecord(
        iteration=iteration,
        objective=float(lp.c @ x),
        rf=primal_infeasibility(lp, x),
        rgap=relative_gap(lp, x, y, w),
        step_feas=step_feas,
        step_desc=step_desc,
        min_x=float(x.min()) if lp.n else 0.0,
        clamps=clamps,
        regularization=rho,
    )
    return IterateState(x, y, w, s, record)


def _factor_at(x, p: GaugeParams, plan: linalg.NormalPlan):
    """H^-1 at x, the factor of A H^-1 A^t, and the clamp count of H."""
    sd = scaling_diagonals(x, p)
    hinv = 1.0 / sd.h
    return hinv, linalg.factor(linalg.assemble_normal(plan, hinv)), sd.clamp_events


def iterate_once(
    state: IterateState,
    lp: StandardLP,
    cfg: SolverConfig,
    hinv,
    F: linalg.CholeskyFactor,
    clamps: int,
) -> IterateState:
    """One combined feasibility + descent pass of the main loop.

    ``hinv``, ``F`` and ``clamps`` come from ``_factor_at(state.x, ...)``.
    """
    x = state.x
    rec = state.record

    dx = feasibility_direction(lp, x, hinv, F)
    d, y, reduced = descent_direction(lp, hinv, F)
    if rec.rgap < REPROJECT_GAP or rec.iteration > REPROJECT_AFTER:
        d = reproject(d, lp, F, hinv)

    # duals at the pre-move point, from the same factorization
    w, s = _bound_duals(lp, x, reduced)

    infeasible = rec.rf > cfg.epsilon

    t_feas = (STEP_AGGRESSIVE if infeasible else STEP_CONSERVATIVE) * max_step(
        x, lp.upper, dx, cap=1.0
    )
    x = x + t_feas * dx

    tmax = max_step(x, lp.upper, d, cap=None)
    if np.isinf(tmax) and float(lp.c @ d) < 0:
        if not infeasible:
            raise UnboundedDirection("descent ray is unconstrained and strictly decreasing")
        t_desc = 0.0  # cannot certify unboundedness at an infeasible point; skip the move
    else:
        t_desc = (STEP_CONSERVATIVE if infeasible else STEP_AGGRESSIVE) * (
            tmax if np.isfinite(tmax) else 0.0
        )
    x = x + t_desc * d

    return _state(
        lp,
        x,
        y,
        w,
        s,
        iteration=rec.iteration + 1,
        clamps=clamps,
        rho=F.rho,
        step_feas=t_feas,
        step_desc=t_desc,
    )


def _converged(state: IterateState, lp: StandardLP, cfg: SolverConfig) -> bool:
    cnorm = np.linalg.norm(lp.c, np.inf) if lp.n else 0.0
    safeguard = -DUAL_SAFEGUARD * (1.0 + cnorm)
    # |rgap|: a strongly negative gap means the dual estimate is infeasible
    # and the point may be far from optimal even though rf is tiny
    return (
        state.record.rf <= cfg.epsilon
        and abs(state.record.rgap) <= cfg.epsilon
        and float(state.s.min(initial=0.0)) >= safeguard
    )


def solve(lp: StandardLP, cfg: SolverConfig | None = None, offset: float = 0.0) -> SolveReport:
    """Run the full affine scaling iteration; never raises past this API."""
    cfg = cfg or SolverConfig()
    p = GaugeParams(r=cfg.r, upper=lp.upper)
    plan = linalg.normal_plan(lp.A)
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
    try:
        x0 = choose_start(lp, plan)
        hinv, F, clamps = _factor_at(x0, p, plan)
        # record 0 reports the start's regularization but not its clamps
        state = _state(lp, x0, *recover_duals(lp, x0, hinv, F), rho=F.rho)
        trace.append(state.record)

        while not _converged(state, lp, cfg):
            if state.record.iteration >= cfg.max_iterations:
                return report(state, Status.ITERATION_LIMIT)
            if state.record.iteration > 0:  # the start's factor serves iteration 1
                hinv, F, clamps = _factor_at(state.x, p, plan)
            state = iterate_once(state, lp, cfg, hinv, F, clamps)
            trace.append(state.record)
        return report(state, Status.OPTIMAL)

    except UnboundedDirection:
        return report(state, Status.UNBOUNDED)
    except (linalg.FactorizationFailed, linalg.NonFiniteInput, NotInterior):
        if state is None:
            state = _state(lp, *(np.full(k, np.nan) for k in (lp.n, lp.m, lp.n, lp.n)))
        return report(state, Status.NUMERICAL_FAILURE)
