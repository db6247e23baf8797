import csv
import dataclasses
import os
import pathlib
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

import galp.solver
from galp import directions, linalg
from galp.cli import R_GRID
from galp.directions import max_step
from galp.model import StandardLP
from galp.penalty import CLAMP_HI, CLAMP_LO, GaugeParams, NotInterior, penalty_gradient, scaling_diagonals
from galp.solver import (
    REPROJECT_GAP,
    STEP_AGGRESSIVE,
    SolverConfig,
    Status,
    _state,
    choose_start,
    iterate_once,
    solve,
    starting_point_x1,
    starting_point_x2,
)

from conftest import (
    DATA,
    NETLIB_PROBLEMS,
    make_lp,
    pass_at,
    random_lp,
    sparse_product_normal,
)
from families import NAMED, PANEL, highs_optimum
from test_directions import masked_max_step


def step(state, lp, cfg):
    return iterate_once(state, lp, cfg, pass_at(lp, state.x, cfg.r))


def fresh(lp):
    """The same LP as a new StandardLP, whose start is not yet memoized."""
    return StandardLP(A=lp.A, b=lp.b, c=lp.c, upper=lp.upper)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r=1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    # a non-finite tolerance would make the stopping test meaningless
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=eps)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)


def test_starting_point_x1_values():
    # columns 1,2 have norm 2 (base n/2 = 2); columns 3,4 are zero (base n = 4)
    lp = make_lp(
        [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
        [1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0],
        upper=[np.inf, np.inf, 1.0, 40.0],
    )
    assert_allclose(starting_point_x1(lp), [2.0, 2.0, 0.1, 4.0])


def test_starting_point_x2_values():
    lp = make_lp([[1.0, 1.0]], [1.0], [0.0, 0.0])
    assert_allclose(starting_point_x2(lp), [0.515, 0.515])

    lp = make_lp([[1.0, 1.0]], [0.0], [0.0, 0.0])
    assert_allclose(starting_point_x2(lp), [0.01, 0.01])

    # min-norm solution (1, -1): the shift is driven by the negative entry
    lp = make_lp([[1.0, -1.0]], [2.0], [0.0, 0.0])
    assert_allclose(starting_point_x2(lp), [2.5, 0.5])


def test_starting_point_x2_respects_bounds():
    lp = make_lp([[1.0, 1.0]], [100.0], [0.0, 0.0], upper=[2.0, np.inf])
    x = starting_point_x2(lp)
    assert 0.0 < x[0] <= 0.99 * 2.0


def shifted_min_norm(lp):
    """x2's minimum-norm solution xhat of A x = b and its shift delta, by the solver's own kernels."""
    F = linalg.factor_normal(lp.plan, np.ones(lp.n))
    xhat = lp.rmatvec(linalg.solve(F, lp.b))
    xnorm = np.maximum.reduce(np.abs(xhat), initial=0.0)
    return xhat, max(-1.5 * float(np.minimum.reduce(xhat, initial=0.0)), 0.01 * (1.0 + xnorm))


def wall_clipped_x2(lp):
    """xhat + delta with each boxed coordinate clipped into [0.01 u, 0.99 u],
    a fixed fraction of u from each wall, instead of x2's margin."""
    xhat, delta = shifted_min_norm(lp)
    x = xhat + delta
    x[lp.bounded] = np.clip(x[lp.bounded], 0.01 * lp.upper_I, 0.99 * lp.upper_I)
    return x


@pytest.mark.parametrize("bounded", ["none", "some", "all"])
def test_starting_point_x2_starts_boxes_off_both_walls(rng, bounded):
    for scale in (1.0, 1e-3, 1e3):
        lp = random_lp(rng, m=4, n=12, bounded=bounded)[0]
        # scaling b scales xhat and delta with it, so the boxes, which keep
        # their width, range from much wider than 2 delta to much narrower
        lp = StandardLP(A=lp.A, b=scale * lp.b, c=lp.c, upper=lp.upper)
        xhat, delta = shifted_min_norm(lp)
        x = starting_point_x2(lp)
        idx, u = lp.bounded, lp.upper_I
        margin = np.minimum(u / 2, delta)
        assert np.all(x[idx] >= margin) and np.all(x[idx] <= u - margin)
        narrow = u < 2 * delta
        assert np.array_equal(x[idx][narrow], u[narrow] / 2)
        free = np.setdiff1d(np.arange(lp.n), idx)
        assert np.array_equal(x[free], xhat[free] + delta)
        if bounded == "none":
            assert np.array_equal(x, wall_clipped_x2(lp))
        if bounded == "all" and scale == 1e3:
            assert narrow.all()  # every box is at its centre


def test_choose_start_branches(monkeypatch):
    # x1 = [2, 2] lies wholly above x2 = [0.515, 0.515]: min x1 > max x2,
    # so x1 is off x2's scale, not more interior, and the start is x2
    lp = make_lp([[1.0, 1.0]], [1.0], [-1.0, -1.0])
    assert starting_point_x1(lp).min() > starting_point_x2(lp).max()
    assert_allclose(choose_start(lp), starting_point_x2(lp))
    # x1 = [2, 4/3] and x2 = [1.025, 1.525]: min x2 <= min x1 <= max x2 and
    # min x1 >= 1, so x1 is the more interior start on x2's scale: keep x1
    lp = make_lp([[1.0, 1.5]], [3.25], [1.0, 1.0])
    x1, x2 = starting_point_x1(lp), starting_point_x2(lp)
    assert x2.min() <= x1.min() <= x2.max() and x1.min() >= 1.0
    assert np.array_equal(choose_start(lp), x1)
    # min x2 ~ 5 beats min x1 = 2: switch to x2
    lp = make_lp([[1.0, 1.0]], [10.0], [-1.0, -1.0])
    assert_allclose(choose_start(lp), starting_point_x2(lp))
    # min x1 = 0.1 < 1 forces x2 regardless
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 1.0], upper=[1.0, 1.0])
    assert starting_point_x1(lp).min() < 1.0
    assert_allclose(choose_start(lp), starting_point_x2(lp))
    # an empty row with a nonzero right-hand side leaves A A^t singular, so
    # x2's factor fails and the start is x1, which needs no factor
    lp = make_lp([[1.0, 1.0], [0.0, 0.0]], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(linalg.FactorizationFailed):
        starting_point_x2(lp)
    calls = []

    def counted(*args, _x2=starting_point_x2):
        calls.append(args)
        return _x2(*args)

    monkeypatch.setattr(galp.solver, "starting_point_x2", counted)
    for r in (0.0, 0.2, 0.5):
        # the start's own pass meets the same empty row
        assert solve(lp, SolverConfig(r=r)).status == Status.NUMERICAL_FAILURE
    assert len(calls) == 1  # memoized: x2 is tried on the first solve only
    assert np.array_equal(lp.start, starting_point_x1(lp))


@pytest.mark.parametrize(
    "name, start", [("blend", "x1"), ("sc50a", "x1"), ("adlittle", "x2"), ("afiro", "x2"), ("sc50b", "x2")]
)
def test_corpus_start_choices_are_pinned(name, start):
    lp = NAMED[name].lp()
    pick = {"x1": starting_point_x1, "x2": starting_point_x2}[start]
    assert np.array_equal(choose_start(lp), pick(lp))


def test_recover_duals_unbounded_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    x = np.array([0.5, 0.5])
    pt = pass_at(lp, x, 0.0)
    assert_allclose(pt.y, [0.5])
    assert_allclose(pt.w, [0.0, 0.0])
    assert_allclose(pt.s, [0.5, -0.5])


def test_recover_duals_bounded_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0], upper=[1.0, np.inf])
    x = np.array([0.5, 0.5])
    pt = pass_at(lp, x, 0.0)
    assert_allclose(pt.y, [1.0 / 3.0])
    assert_allclose(pt.w, [-1.0 / 3.0, 0.0])
    assert_allclose(pt.s, [1.0 / 3.0, -1.0 / 3.0])


def test_relative_gap_identity(rng):
    # at a feasible x the gap equals <s, x> + <w_I, u_I - x_I>
    for _ in range(20):
        lp, x = random_lp(rng, m=3, n=6, bounded="some")
        pt = pass_at(lp, x, 0.3)
        idx = lp.bounded
        direct = float(pt.s @ x) + float(pt.w[idx] @ (lp.upper[idx] - x[idx]))
        expected = direct / (abs(float(lp.c @ x)) + 1.0)
        assert _state(lp, x, lp.b - lp.A @ x, pt).record.rgap == pytest.approx(expected, rel=1e-10, abs=1e-12)


def _fresh_state(lp, x, r=0.0):
    return _state(lp, x, lp.b - lp.A @ x, pass_at(lp, x, r))


def test_iterate_once_descent_step_hand_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    cfg = SolverConfig(r=0.0)
    state = _fresh_state(lp, np.array([0.5, 0.5]))
    assert state.record.rf == 0.0
    out = step(state, lp, cfg)
    # feasible point: residual move is a no-op, descent uses the 0.95 factor
    # on d = (-0.125, 0.125) with wall at t = 4
    assert out.record.step_desc == pytest.approx(0.95 * 4.0)
    assert_allclose(out.x, [0.025, 0.975])
    assert out.record.iteration == 1


def test_iterate_once_feasibility_step_hand_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [0.0, 0.0])
    cfg = SolverConfig(r=0.0)
    state = _fresh_state(lp, np.array([1.0, 1.0]))  # residual -1, Rf = 0.5
    out = step(state, lp, cfg)
    # infeasible: dx = (-0.5, -0.5), cap at 1 binds, factor 0.95
    assert out.record.step_feas == pytest.approx(0.95)
    assert out.record.rf == pytest.approx(0.05 * 0.5)
    assert out.record.rf < state.record.rf


def test_iterate_once_swaps_step_factors(rng):
    lp, x_feas = random_lp(rng, m=3, n=7)
    cfg = SolverConfig(r=0.2)
    # infeasible start: feasibility gets the aggressive factor
    state = _fresh_state(lp, np.full(lp.n, 2.0), r=cfg.r)
    assert state.record.rf > cfg.epsilon
    out = step(state, lp, cfg)
    tmax_feas = out.record.step_feas / STEP_AGGRESSIVE
    assert 0.0 < tmax_feas <= 1.0 + 1e-12


def test_iterate_preserves_interiority(rng):
    lp, _ = random_lp(rng, m=3, n=7, bounded="all")
    cfg = SolverConfig(r=0.2)
    state = _fresh_state(lp, choose_start(lp), r=cfg.r)
    for _ in range(40):
        if state.record.rf <= cfg.epsilon and state.record.rgap <= cfg.epsilon:
            break
        state = step(state, lp, cfg)
        assert state.x.min() > 0.0
        assert np.all(state.x < lp.upper)


def test_residual_contracts_across_iterations(rng):
    lp, _ = random_lp(rng, m=4, n=9)
    cfg = SolverConfig(r=0.3)
    x0 = np.minimum(np.full(lp.n, 3.0), 0.9 * lp.upper)
    state = _fresh_state(lp, x0, r=cfg.r)
    prev = state.record.rf
    for _ in range(10):
        state = step(state, lp, cfg)
        if prev > cfg.epsilon:
            assert state.record.rf <= prev * 0.06  # (1 - 0.95) with slack
        prev = state.record.rf


def test_objective_monotone_once_feasible(rng):
    lp, _ = random_lp(rng, m=3, n=7, bounded="all")
    cfg = SolverConfig(r=0.2)
    report = solve(lp, cfg)
    assert report.status == Status.OPTIMAL
    objs = [t.objective for t in report.trace]
    rfs = [t.rf for t in report.trace]
    for k in range(1, len(objs)):
        if rfs[k - 1] <= cfg.epsilon:
            assert objs[k] <= objs[k - 1] + 1e-9 * (1.0 + abs(objs[k - 1]))


def test_solve_min_coordinate():
    # min x1 subject to x1 + x2 = 1: optimum at (0, 1)
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    report = solve(lp, SolverConfig(r=0.0))
    assert report.status == Status.OPTIMAL
    assert report.objective == pytest.approx(0.0, abs=1e-7)
    assert_allclose(report.x, [0.0, 1.0], atol=1e-6)
    assert report.rf <= 1e-8
    assert report.rgap <= 1e-8


def test_solve_bounded_instance():
    # min -x1 - x2 with x1 + x2 + slack = 3, x1 <= 1, x2 <= 1
    lp = make_lp([[1.0, 1.0, 1.0]], [3.0], [-1.0, -1.0, 0.0], upper=[1.0, 1.0, np.inf])
    report = solve(lp, SolverConfig(r=0.2))
    assert report.status == Status.OPTIMAL
    assert report.objective == pytest.approx(-2.0, abs=1e-6)
    assert_allclose(report.x[:2], [1.0, 1.0], atol=1e-5)


def test_solve_reports_unbounded():
    # min -x1 subject to x1 - x2 = 0: the ray (t, t) decreases forever
    lp = make_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0])
    report = solve(lp, SolverConfig(r=0.0))
    assert report.status == Status.UNBOUNDED


def test_solve_reports_numerical_failure():
    lp = make_lp([[0.0, 0.0]], [1.0], [1.0, 1.0])
    report = solve(lp)
    assert report.status == Status.NUMERICAL_FAILURE
    assert np.isnan(report.x).all()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_normal_matrix_ends_the_solve_as_numerical_failure(monkeypatch, value):
    # from the pass at x_5 on, every assembly carries a non-finite entry in
    # the triangle the factor reads: each rung fails, the ladder's extra
    # assembly names NonFiniteInput, and the solve reports the point it reached
    lp = NAMED["afiro"].lp()
    clean = solve(lp, SolverConfig())
    assert clean.status == Status.OPTIMAL and clean.iterations > 5
    assemblies, ends = [], []

    def poisoned(plan, dinv, _assemble=linalg.assemble_normal):
        M = _assemble(plan, dinv)
        assemblies.append(M.shape)
        if len(assemblies) > 5:  # the start is memoized, so assembly 1 is x0's pass
            M[0, -1] = value
        return M

    def spy(plan, dinv, _factor_normal=linalg.factor_normal):
        try:
            return _factor_normal(plan, dinv)
        except Exception as exc:
            ends.append(type(exc))
            raise

    monkeypatch.setattr(linalg, "assemble_normal", poisoned)
    monkeypatch.setattr(linalg, "factor_normal", spy)
    report = solve(lp, SolverConfig())
    assert report.status == Status.NUMERICAL_FAILURE
    assert ends == [linalg.NonFiniteInput]
    assert len(assemblies) == 5 + len(linalg.REGULARIZATIONS) + 1
    assert report.iterations == 5
    assert [dataclasses.astuple(t) for t in report.trace] == [dataclasses.astuple(t) for t in clean.trace[:6]]


def test_overflowing_start_matrix_falls_back_to_x1():
    # x2 assembles A A^t: both products in row 0 are 1e308, finite, but their
    # sum is not, so every rung fails and the ladder names NonFiniteInput
    lp = make_lp([[1e154, 1e154, 0.0], [0.0, 1.0, 1.0]], [2e154, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(linalg.NonFiniteInput):
        starting_point_x2(lp)
    assert np.array_equal(choose_start(lp), starting_point_x1(lp))


def test_overflow_on_either_plan_ends_numerical_failure(rng):
    # entries of 1e154 overflow products on the way: the pair table's
    # A[0,j] dinv_j A[0,j] on the small LP, and on the dense-column LP, whose
    # plan has a dense block, the squares of its column norms at the start;
    # each overflow is handled, so solve reports instead of warning
    pair = make_lp([[1e154, 1e154, 0.0], [0.0, 1.0, 1.0]], [2e154, 2.0], [1.0, 1.0, 1.0])
    dense = dense_column_lp(rng)
    A = dense.A.tolil()
    A[:2, :8] = 1e154
    b = dense.b.copy()
    b[:2] = 8e154
    product = StandardLP(A=sp.csc_matrix(A), b=b, c=dense.c, upper=dense.upper)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lp, has_block in ((pair, False), (product, True)):
            for r in (0.0, 0.5):
                assert solve(lp, SolverConfig(r=r)).status == Status.NUMERICAL_FAILURE
            assert (lp.plan.block_cols.size > 0) == has_block


def test_x1_of_an_overflowing_column_is_off_the_wall(rng):
    # the dense-column LP above (x1 ignores b): the squares of 1e154
    # overflow, and each of columns 0-7 takes its norm again on the column
    # scaled by its largest entry, so no x1_j is n / inf = 0; the sum's
    # overflow raises no warning, and the other columns keep their bits
    dense = dense_column_lp(rng)
    A = dense.A.tolil()
    A[:2, :8] = 1e154
    lp = StandardLP(A=sp.csc_matrix(A), b=dense.b, c=dense.c, upper=dense.upper)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x1 = starting_point_x1(lp)
    assert np.count_nonzero(x1 == 0.0) == 0
    assert np.array_equal(x1[8:], starting_point_x1(dense)[8:])


def test_solve_iteration_limit():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    report = solve(lp, SolverConfig(r=0.0, max_iterations=2))
    assert report.status == Status.ITERATION_LIMIT
    assert report.iterations == 2


def test_solve_trace_schema_and_offset():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    report = solve(lp, SolverConfig(r=0.0), offset=5.0)
    assert report.objective_original == pytest.approx(report.objective + 5.0)
    assert len(report.trace) == report.iterations + 1
    for k, rec in enumerate(report.trace):
        assert rec.iteration == k
        assert np.isfinite(rec.objective)
        assert rec.rf >= 0.0
        assert rec.regularization in (0.0,) + tuple(linalg.REGULARIZATIONS)


# one case for each way solve can end: (build the LP, config, status, iterations or None)
ENDINGS = {
    "optimal": (lambda: NAMED["afiro"].lp(), SolverConfig(), Status.OPTIMAL, None),
    "iteration_limit": (lambda: NAMED["afiro"].lp(), SolverConfig(max_iterations=3), Status.ITERATION_LIMIT, 3),
    "unbounded_in_the_loop": (
        lambda: make_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0]), SolverConfig(), Status.UNBOUNDED, None
    ),
    "unbounded_without_rows": (
        lambda: rowless_lp([1.0, -1.0], [2.0, np.inf]), SolverConfig(), Status.UNBOUNDED, 0
    ),
    "infeasible_without_columns": (
        lambda: make_lp(np.zeros((2, 0)), [0.0, 3.0], []), SolverConfig(), Status.INFEASIBLE, 0
    ),
    "failure_mid_solve": (lambda: NAMED["fix02"].lp(), SolverConfig(r=0.0), Status.NUMERICAL_FAILURE, 248),
    "failure_before_a_point": (lambda: NAMED["fix01"].lp(), SolverConfig(), Status.NUMERICAL_FAILURE, 0),
}


@pytest.mark.parametrize("ending", ENDINGS)
def test_every_ending_reports_shapes_offset_and_last_record(ending):
    build, cfg, status, iterations = ENDINGS[ending]
    lp = build()
    report = solve(lp, cfg, offset=2.5)
    assert report.status == status
    assert iterations is None or report.iterations == iterations
    assert [a.shape for a in (report.x, report.y, report.w, report.s)] == [(lp.n,), (lp.m,), (lp.n,), (lp.n,)]
    assert np.array_equal(report.objective_original, report.objective + 2.5, equal_nan=True)
    if ending == "failure_before_a_point":
        assert report.trace == [] and np.isnan(report.objective)
    else:
        rec = report.trace[-1]
        assert (report.iterations, report.objective, report.rf, report.rgap) == (
            rec.iteration, rec.objective, rec.rf, rec.rgap
        )


def test_solve_is_deterministic(rng):
    lp, _ = random_lp(rng, m=3, n=7, bounded="some")
    a = solve(lp, SolverConfig(r=0.2))
    b = solve(lp, SolverConfig(r=0.2))
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert [t.objective for t in a.trace] == [t.objective for t in b.trace]


def test_duals_lag_primal_by_one_move():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    cfg = SolverConfig(r=0.0)
    state = _fresh_state(lp, np.array([0.5, 0.5]))
    out = step(state, lp, cfg)
    # reported duals were computed at the pre-move point
    pre = pass_at(lp, state.x, 0.0)
    assert_allclose(out.y, pre.y)
    assert_allclose(out.s, pre.s)


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_boxed_lp_takes_the_linear_move(monkeypatch, rng, r):
    # on a seeded all-boxed LP walked from choose_start to convergence, d is
    # reprojected exactly when the entering rgap is below REPROJECT_GAP, and
    # every feasible state's move is the linear one: STEP_AGGRESSIVE times
    # the ratio test after the feasibility move, to a new x strictly inside
    lp = random_lp(rng, m=10, n=30, bounded="all")[0]
    cfg = SolverConfig(r=r)
    state = _fresh_state(lp, choose_start(lp), r=r)
    reprojected, near, feasible = [], set(), 0

    def counted(*args):
        reprojected.append(state.record.iteration)
        return directions.reproject(*args)

    monkeypatch.setattr(galp.solver, "reproject", counted)
    while not (state.record.rf <= cfg.epsilon and abs(state.record.rgap) <= cfg.epsilon):
        rec = state.record
        assert rec.iteration < cfg.max_iterations, f"r = {r}: the walk did not converge"
        pt = pass_at(lp, state.x, r)
        out = iterate_once(state, lp, cfg, pt)
        near.add(rec.rgap < REPROJECT_GAP)
        assert reprojected.count(rec.iteration) == (rec.rgap < REPROJECT_GAP), rec.iteration
        if rec.rf <= cfg.epsilon:
            feasible += 1
            d = directions.reproject(pt.d, lp, pt.F, pt.hinv) if rec.rgap < REPROJECT_GAP else pt.d
            x = state.x + out.record.step_feas * pt.dx
            t = STEP_AGGRESSIVE * max_step(x, lp.upper, d)
            assert out.record.step_desc == t, rec.iteration
            assert np.array_equal(out.x, x + t * d), rec.iteration
            assert out.x.min() > 0.0 and (lp.upper - out.x).min() > 0.0, rec.iteration
        state = out
    # the walk saw both sides of REPROJECT_GAP, and most of it was feasible
    assert near == {False, True} and feasible > state.record.iteration // 2


def rowless_lp(c, upper):
    """min <c, x> over 0 <= x <= upper, with no rows."""
    c = np.asarray(c, dtype=float)
    return StandardLP(A=sp.csc_matrix((0, c.size)), b=np.zeros(0), c=c, upper=np.asarray(upper, dtype=float))


def test_rowless_lp_gets_its_exact_answer(rng):
    from scipy.optimize import linprog

    statuses = Counter()
    for _ in range(60):
        n = int(rng.integers(1, 8))
        c = rng.normal(size=n) * (rng.random(n) < 0.8)  # some c_j exactly 0
        upper = np.where(rng.random(n) < 0.6, rng.uniform(0.5, 3.0, n), np.inf)
        lp = rowless_lp(c, upper)
        ref = linprog(c, bounds=[(0.0, u if np.isfinite(u) else None) for u in upper], method="highs")
        for r in (0.0, 0.5):
            report = solve(lp, SolverConfig(r=r))
            statuses[report.status] += 1
            assert report.status == {0: Status.OPTIMAL, 3: Status.UNBOUNDED}[ref.status], (c, upper)
            assert report.iterations == 0 and len(report.trace) == 1 and report.y.shape == (0,)
            assert (report.x >= 0).all() and (report.x <= upper).all()
            assert report.objective == float(c @ report.x) and report.rf == 0.0
            assert np.array_equal(report.s, c + report.w) and (report.w >= 0).all()
            if report.status == Status.OPTIMAL:
                assert report.objective == pytest.approx(ref.fun, rel=1e-12, abs=1e-12)
                assert (report.s >= 0).all() and abs(report.rgap) <= 1e-15
    assert statuses[Status.OPTIMAL] > 20 and statuses[Status.UNBOUNDED] > 20
    # no rows and no columns: Optimal at the empty point
    report = solve(rowless_lp([], []))
    assert report.status == Status.OPTIMAL and report.objective == 0.0 and report.x.shape == (0,)


def test_column_free_lp_gets_a_report():
    # rows but no columns: A x = b reads 0 = b, so b = 0 is solved by the
    # empty point, and any other b is infeasible, with y = sign(b_i) e_i at
    # its first nonzero b_i as an exact Farkas ray (A^t y is empty, <b, y> > 0)
    report = solve(make_lp(np.zeros((1, 0)), [0.0], []))
    assert report.status == Status.OPTIMAL and report.objective == 0.0 and report.x.shape == (0,)
    assert np.array_equal(report.y, [0.0]) and report.rf == 0.0 and report.rgap == 0.0
    report = solve(make_lp(np.zeros((1, 0)), [1.0], []))
    assert report.status == Status.INFEASIBLE and np.array_equal(report.y, [1.0])
    for r in (0.0, 0.5):
        report = solve(make_lp(np.zeros((3, 0)), [0.0, -2.0, 5.0], []), SolverConfig(r=r))
        assert report.status == Status.INFEASIBLE and np.array_equal(report.y, [0.0, -1.0, 0.0])
        assert report.iterations == 0 and len(report.trace) == 1 and report.x.shape == (0,)
        assert report.s.shape == report.w.shape == (0,) and report.rf == 5.0 / 6.0


def test_solve_hands_the_pass_the_lps_own_box_set(monkeypatch):
    # GaugeParams holds the LP's own read-only I and u_I: solve derives no copy
    seen = []

    def spy(x, p):
        seen.append(p)
        return scaling_diagonals(x, p)

    monkeypatch.setattr(galp.solver, "scaling_diagonals", spy)
    boxed = next(member for member in PANEL["box_heavy"].members if member.seed == 0).lp()
    plain = NAMED["afiro"].lp()
    assert boxed.upper_I.size == boxed.n and plain.upper_I.size == 0  # I full and I empty
    for lp in (boxed, plain):
        seen.clear()
        solve(lp, SolverConfig(r=0.2, max_iterations=2))
        assert len(seen) == 2 and all(p.bounded is lp.bounded and p.upper_I is lp.upper_I for p in seen)


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="an empty column's free ray is not detected")
def test_unbounded_empty_column_is_reported_unbounded():
    # x_2 is in no row, has cost -1 and no upper bound, so x = (1, t) is
    # feasible for every t >= 0 and the objective falls without bound;
    # solve ends IterationLimit at 300 with x_2 about 5.5e66 instead
    report = solve(make_lp([[1.0, 0.0]], [1.0], [1.0, -1.0]))
    assert report.status == Status.UNBOUNDED


def test_reproject_follows_the_gap_alone(monkeypatch):
    # blend at r=0.7 runs past iteration 20 with the entering rgap above REPROJECT_GAP
    lp = NAMED["blend"].lp()
    entering, reprojected = [], []

    def iterate(state, *args):
        entering.append(state.record)
        return iterate_once(state, *args)

    def counted(*args):
        reprojected.append(entering[-1].iteration)
        return directions.reproject(*args)

    monkeypatch.setattr(galp.solver, "iterate_once", iterate)
    monkeypatch.setattr(galp.solver, "reproject", counted)
    assert solve(lp, SolverConfig(r=0.7)).status == Status.OPTIMAL
    assert reprojected == [rec.iteration for rec in entering if rec.rgap < REPROJECT_GAP]
    assert any(rec.iteration > 20 and rec.rgap >= REPROJECT_GAP for rec in entering)


def test_start_record_reports_clamps(monkeypatch):
    scaling_diagonals = galp.solver.scaling_diagonals

    def two_clamps(x, p):
        return dataclasses.replace(scaling_diagonals(x, p), clamp_events=2)

    monkeypatch.setattr(galp.solver, "scaling_diagonals", two_clamps)
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    assert solve(lp, SolverConfig(r=0.0)).trace[0].clamps == 2


def shifted_matrix_factor(M, rho=0.0):
    """One rung: Cholesky of M + rho*diag(M) with the m x m diagonal matrix formed.

    It reads M's upper triangle, as the lower triangle of M^t, and fails
    unless every pivot is finite with a square above 1e-30.
    """
    S = M.T
    try:
        L = scipy.linalg.cholesky(S + rho * np.diag(np.diag(S)), lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        raise linalg.FactorizationFailed("not positive definite") from None
    pivots = np.diag(L)
    if np.all(np.isfinite(pivots)) and np.min(pivots) ** 2 > 1e-30:
        return linalg.CholeskyFactor(L=L, rho=rho)
    raise linalg.FactorizationFailed("rank deficient")


def lower_factor_solve(F, rhs):
    return scipy.linalg.cho_solve((F.L, True), rhs, check_finite=False)


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_solve_bit_identical_to_sparse_product_kernel(monkeypatch, r):
    cfg = SolverConfig(r=r)
    lps = [NAMED[name].lp() for name in NETLIB_PROBLEMS]
    planned = [solve(lp, cfg) for lp in lps]

    monkeypatch.setattr(linalg, "normal_plan", lambda A: A)
    monkeypatch.setattr(linalg, "assemble_normal", sparse_product_normal)
    monkeypatch.setattr(linalg, "factor", shifted_matrix_factor)
    monkeypatch.setattr(linalg, "solve", lower_factor_solve)
    monkeypatch.setattr(directions, "solve", lower_factor_solve)
    for lp, new in zip(lps, planned):
        old = solve(fresh(lp), cfg)
        assert new.status == old.status == Status.OPTIMAL
        assert [dataclasses.astuple(t) for t in new.trace] == [dataclasses.astuple(t) for t in old.trace]
        for name in ("x", "y", "w", "s"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name


def test_rung_path_bit_identical_to_sparse_product_kernel(monkeypatch):
    # the corpus never leaves rho = 0; these fixtures climb the ladder: fix02,
    # fix05 and fix20 factor at rho = 1e-12 after a failed first rung, and
    # fix01's empty row fails every rung, at x2's factor and at x1's pass
    cases = [(name, r) for name in ("fix01", "fix02", "fix05", "fix20") for r in (0.0, 0.2, 0.5)]
    lps = {name: NAMED[name].lp() for name, _ in cases}
    planned = {(name, r): solve(fresh(lps[name]), SolverConfig(r=r)) for name, r in cases}

    rungs = Counter()

    def one_rung(M, rho=0.0):
        try:
            F = shifted_matrix_factor(M, rho)
        except linalg.FactorizationFailed:
            rungs[rho, "failed"] += 1
            raise
        rungs[rho, "ok"] += 1
        return F

    monkeypatch.setattr(linalg, "normal_plan", lambda A: A)
    monkeypatch.setattr(linalg, "assemble_normal", sparse_product_normal)
    monkeypatch.setattr(linalg, "factor", one_rung)
    monkeypatch.setattr(linalg, "solve", lower_factor_solve)
    monkeypatch.setattr(directions, "solve", lower_factor_solve)
    for name, r in cases:
        new, old = planned[name, r], solve(fresh(lps[name]), SolverConfig(r=r))
        assert new.status == old.status, (name, r)
        assert [dataclasses.astuple(t) for t in new.trace] == [dataclasses.astuple(t) for t in old.trace], (name, r)
        for field in ("x", "y", "w", "s"):
            assert np.array_equal(getattr(new, field), getattr(old, field), equal_nan=True), (name, r, field)
    assert rungs[1e-12, "ok"] > 400  # regularized factors
    assert all(rungs[rho, "failed"] == 6 for rho in linalg.REGULARIZATIONS[1:])  # fix01: 2 ladders per r


def numpy_cholesky_factor(M, rho=0.0):
    """One rung by np.linalg.cholesky of the symmetric matrix whose upper triangle
    M holds, with the shift applied to a copy."""
    S = np.triu(M) + np.triu(M, 1).T
    diag = np.diag(S).copy()
    np.fill_diagonal(S, diag + rho * diag)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise linalg.FactorizationFailed("not positive definite") from None
    pivots = np.diag(L)
    if np.all(np.isfinite(pivots)) and np.min(pivots) ** 2 > 1e-30:
        return linalg.CholeskyFactor(L=L, rho=rho)
    raise linalg.FactorizationFailed("rank deficient")


def upper_factor_solve(F, rhs):
    return scipy.linalg.cho_solve((F.L.T, False), rhs, check_finite=False)


# numpy's and LAPACK's Cholesky routes agree only up to their last bits.  On
# the corpus at r 0 and 0.5 the largest drift, as |new - old| / max(|old|, 1),
# is 1.5e-8 on x, 2.3e-9 on step_desc and 2.2e-11 on objective, rf and rgap;
# the tolerance leaves a factor of about 60 above that.
CROSS_LIBRARY_TOL = 1e-6


def within_cross_library_tol(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    return new.shape == old.shape and np.all(
        np.abs(new - old) <= CROSS_LIBRARY_TOL * np.maximum(np.abs(old), 1.0)
    )


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_solve_agrees_with_numpy_cholesky_kernel(monkeypatch, r):
    cfg = SolverConfig(r=r)
    lps = [NAMED[name].lp() for name in NETLIB_PROBLEMS]
    lapack = [solve(lp, cfg) for lp in lps]

    monkeypatch.setattr(linalg, "factor", numpy_cholesky_factor)
    monkeypatch.setattr(linalg, "solve", upper_factor_solve)
    monkeypatch.setattr(directions, "solve", upper_factor_solve)
    for name, lp, new in zip(NETLIB_PROBLEMS, lps, lapack):
        old = solve(fresh(lp), cfg)
        assert new.status == old.status == Status.OPTIMAL, name
        assert new.iterations == old.iterations, name
        # the integer fields (iteration, clamps) must match exactly under this tolerance
        trace = [[dataclasses.astuple(t) for t in rep.trace] for rep in (new, old)]
        assert within_cross_library_tol(*trace), name
        assert within_cross_library_tol(new.x, old.x), name


def counting(fn, log):
    """fn, with the shape of each call's argument appended to log."""

    def counted(v):
        log.append(v.shape)
        return fn(v)

    return counted


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_solve_factors_once_per_point(monkeypatch, r):
    calls, descents, solves, reprojects, products, rproducts, sparse_matmuls = [], [], [], [], [], [], []
    factor = linalg.factor

    def counted(M, rho=0.0):
        calls.append((M.shape, rho))
        return factor(M, rho)

    def descent(*args):
        descents.append(args)
        return directions.descent_direction(*args)

    def counted_solve(F, rhs, _solve=linalg.solve):
        solves.append(np.shape(rhs))
        return _solve(F, rhs)

    def reproject(*args):
        reprojects.append(args)
        return directions.reproject(*args)

    monkeypatch.setattr(linalg, "factor", counted)
    monkeypatch.setattr(galp.solver, "descent_direction", descent)
    # the solver's solves go through linalg.solve, reproject's through directions.solve
    monkeypatch.setattr(linalg, "solve", counted_solve)
    monkeypatch.setattr(directions, "solve", counted_solve)
    monkeypatch.setattr(galp.solver, "reproject", reproject)
    # every product of A or A^t with a vector goes through lp.matvec and
    # lp.rmatvec; scipy's sparse products, with their Python dispatch, never run
    for cls in (sp.csc_matrix, sp.csr_matrix):
        for op in ("__matmul__", "__rmatmul__"):
            def spy(self, other, _op=getattr(cls, op), _name=f"{cls.__name__}.{op}"):
                sparse_matmuls.append(_name)
                return _op(self, other)

            monkeypatch.setattr(cls, op, spy)
    for name in NETLIB_PROBLEMS:
        lp = NAMED[name].lp()
        lp.matvec = counting(lp.matvec, products)
        lp.rmatvec = counting(lp.rmatvec, rproducts)
        for cold in (True, False):  # the first solve computes the start, the second reuses it
            for log in (calls, descents, solves, reprojects, products, rproducts, sparse_matmuls):
                log.clear()
            report = solve(lp, SolverConfig(r=r))
            assert report.status == Status.OPTIMAL
            k, nrep = report.iterations, len(reprojects)
            # x2's start factor, then x0 .. x_{k-1} once each; the final point is not factored
            # and no rung above rho = 0 is tried
            assert calls == [((lp.m, lp.m), 0.0)] * (k + cold), name
            # one descent per factored point: the start's pass serves iteration 1
            assert len(descents) == k, name
            # x2's solve, one two-column solve per pass, and one per reprojection
            assert nrep, name
            assert len(solves) == cold + k + nrep, name
            assert solves.count((lp.m, 2)) == k, name
            # A x once per point (x0 .. x_k), A H^-1 c once per pass, A d once per reprojection
            assert products == [(lp.n,)] * (2 * k + 1 + nrep), name
            # A^t v for x2, A^t y (descent) and A^t v (feasibility) once per
            # pass, A^t v once per reprojection
            assert rproducts == [(lp.m,)] * (cold + 2 * k + nrep), name
            assert sparse_matmuls == [], name


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_bound_products_solve_as_scipys_products(r, rng):
    """The solve with lp.matvec and lp.rmatvec is the solve with scipy's @, bit for bit."""
    lps = [NAMED[name].lp() for name in NETLIB_PROBLEMS]
    lps.append(random_lp(rng, m=6, n=14, bounded="all")[0])
    for lp in lps:
        twin = fresh(lp)
        twin.matvec = lambda x, A=twin.A: A @ x
        twin.rmatvec = lambda y, A=twin.A: A.T @ y
        new, old = solve(lp, SolverConfig(r=r)), solve(twin, SolverConfig(r=r))
        assert new.status == old.status
        assert repr(new.trace) == repr(old.trace)
        for field_ in ("x", "y", "s", "w"):
            assert np.array_equal(getattr(new, field_), getattr(old, field_)), field_


def dense_column_lp(rng):
    """Boxed, feasible LP whose 8 full columns give its plan a dense block."""
    A = sp.random(30, 60, density=0.1, format="lil", random_state=rng)
    A[:, :8] = rng.uniform(-1, 1, size=(30, 8))
    A = sp.csc_matrix(A)
    x_feas = rng.uniform(0.5, 1.5, size=60)
    lp = StandardLP(A=A, b=A @ x_feas, c=rng.uniform(-1, 1, size=60), upper=x_feas + 1.0)
    assert linalg.normal_plan(lp.A).block_cols.size > 0
    return lp


@pytest.mark.parametrize("seed", range(8))
def test_dense_column_lps_match_highs(seed):
    # the dense block's rounding differs from the pair table's, so the family
    # is checked end to end against an independent solver at each r
    lp = dense_column_lp(np.random.default_rng(seed))
    optimum = highs_optimum(lp)
    for r in (0.0, 0.2, 0.5):
        report = solve(lp, SolverConfig(r=r))
        assert report.status == Status.OPTIMAL, (r, report.status)
        assert abs(report.objective - optimum) <= 1e-6 * (1.0 + abs(optimum)), (r, report.objective, optimum)


def test_solve_builds_no_transpose(monkeypatch, rng):
    corpus = [NAMED[name].lp() for name in NETLIB_PROBLEMS]
    boxed = random_lp(rng, m=10, n=30, bounded="all")[0]
    dense = dense_column_lp(rng)
    calls = []
    for cls in (sp.csc_matrix, sp.csr_matrix):
        transpose = cls.transpose

        def counted(self, *args, _transpose=transpose, **kwargs):
            calls.append(type(self).__name__)
            return _transpose(self, *args, **kwargs)

        monkeypatch.setattr(cls, "transpose", counted)
    corpus[0].A.T  # the wrapper is live
    assert calls == ["csc_matrix"]
    calls.clear()
    for lp in corpus:
        for r in (0.0, 0.5):
            assert solve(lp, SolverConfig(r=r)).status == Status.OPTIMAL
    for lp in (boxed, dense):
        assert solve(lp, SolverConfig(r=0.2)).iterations > 0
    assert calls == []


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_solve_bit_identical_to_masked_ratio_test(monkeypatch, rng, r):
    cfg = SolverConfig(r=r)
    lps = [NAMED[name].lp() for name in NETLIB_PROBLEMS]
    lps += [random_lp(rng, m=10, n=30, bounded="all")[0], dense_column_lp(rng)]
    reports = [solve(lp, cfg) for lp in lps]

    monkeypatch.setattr("galp.solver.max_step", masked_max_step)
    for lp, new in zip(lps, reports):
        old = solve(lp, cfg)
        assert new.status == old.status
        assert [dataclasses.astuple(t) for t in new.trace] == [dataclasses.astuple(t) for t in old.trace]
        for name in ("x", "y", "w", "s"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name


def test_overflowing_direction_solve_keeps_its_report(monkeypatch):
    # columns 0 and 2 are empty, so d_0 = -hinv_0 * c_0 overflows to +inf:
    # the first descent move sends x_0 to +inf on its unbounded column, the
    # next descent ratio (u_0 - x_0) / d_0 = (inf - inf) / inf is NaN, the
    # NaN step skips the move, and x_0 = inf + 0 * inf is NaN, so the next
    # pass fails; a ratio test that skipped the NaN ends IterationLimit
    lp = make_lp([[0.0, -100.0, 0.0]], [-9e152], [-4e295, -3e19, 2e154])
    cfg = SolverConfig(r=0.7)
    with np.errstate(over="ignore", invalid="ignore"):
        report = solve(lp, cfg)
        monkeypatch.setattr("galp.solver.max_step", masked_max_step)
        oracle = solve(fresh(lp), cfg)
    assert report.status == Status.NUMERICAL_FAILURE and report.iterations == 2
    assert report.trace[1].step_desc > 0 and report.trace[2].step_desc == 0.0
    assert np.isnan(report.x[0]) and np.isfinite(report.x[1:]).all()
    assert oracle.status == report.status
    # repr of each entry as a float: NaN matches NaN, and np.float64 matches float
    assert [repr(tuple(map(float, dataclasses.astuple(t)))) for t in oracle.trace] == [
        repr(tuple(map(float, dataclasses.astuple(t)))) for t in report.trace
    ]
    for name in ("x", "y", "s", "w"):
        assert np.array_equal(getattr(oracle, name), getattr(report, name), equal_nan=True), name


def python_wrapper_calls(fn):
    """fn(), and a Counter of the calls it made into numpy's Python reduction
    wrappers (``_methods._amin``, ``_amax``, ``_all``), ``numpy.full`` and
    scipy's sparse ``get_shape``, matched by file and function name so that
    numpy.core (1.x) and numpy._core (2.x) both match."""
    watched = {("_methods", "_amin"), ("_methods", "_amax"), ("_methods", "_all"), ("numeric", "full")}
    hits = Counter()

    def profile(frame, event, arg):
        if event == "call":
            path = pathlib.PurePath(frame.f_code.co_filename)
            name = frame.f_code.co_name
            if (path.stem, name) in watched and "numpy" in path.parts:
                hits[f"{path.stem}.{name}"] += 1
            elif name == "get_shape" and "scipy" in path.parts:
                hits[name] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, hits


def test_warm_solve_skips_python_wrappers(rng):
    # a dense A within linalg.PAIR_BUDGET pairs, as 10 x 30, has no dense
    # block; the dense-column LP's block goes through dsyrk
    boxed = random_lp(rng, m=10, n=30, bounded="all")[0]
    lps = [NAMED[name].lp() for name in NETLIB_PROBLEMS] + [boxed, dense_column_lp(rng)]
    for lp in lps:  # cold: the start and the plan are built here
        solve(lp, SolverConfig(r=0.2))
    assert [lp.plan.block_cols.size > 0 for lp in lps] == [False] * (len(lps) - 1) + [True]
    assert boxed.bounded.size == boxed.n
    reports, hits = python_wrapper_calls(lambda: [solve(lp, SolverConfig(r=0.2)) for lp in lps])
    assert all(rep.iterations > 0 for rep in reports)
    assert hits == Counter()
    # the spy sees each watched function when it is called
    probe = np.ones(3)
    _, seen = python_wrapper_calls(lambda: (probe.min(), probe.max(), probe.all(), np.full(2, 0.0), lps[0].A.shape))
    assert set(seen) == {"_methods._amin", "_methods._amax", "_methods._all", "numeric.full", "get_shape"}


def column_by_column_solve(F, rhs):
    """Solve an m x k right-hand side as k one-column cho_solve calls."""
    if rhs.ndim == 1:
        return lower_factor_solve(F, rhs)
    # Fortran order, as dpotrs returns it: a strided column would change the
    # summation order of the BLAS dot in b @ y
    return np.array([lower_factor_solve(F, col) for col in rhs.T]).T


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_solve_bit_identical_to_one_column_solves(monkeypatch, rng, r):
    # the oracle is the route with one solve per move: a cleaned scipy factor
    # and a separate one-column solve for each right-hand side
    cfg = SolverConfig(r=r)
    lps = [NAMED[name].lp() for name in NETLIB_PROBLEMS]
    lps += [random_lp(rng, m=10, n=30, bounded="all")[0], dense_column_lp(rng)]
    reports = [solve(lp, cfg) for lp in lps]

    monkeypatch.setattr(linalg, "factor", shifted_matrix_factor)
    monkeypatch.setattr(linalg, "solve", column_by_column_solve)
    monkeypatch.setattr(directions, "solve", lower_factor_solve)
    for lp, new in zip(lps, reports):
        old = solve(fresh(lp), cfg)
        assert new.status == old.status
        assert [dataclasses.astuple(t) for t in new.trace] == [dataclasses.astuple(t) for t in old.trace]
        for name in ("x", "y", "w", "s"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name


def test_plan_is_built_once_per_lp(monkeypatch):
    calls = []

    def counted(A, _plan=linalg.normal_plan):
        calls.append(A)
        return _plan(A)

    monkeypatch.setattr(linalg, "normal_plan", counted)
    lp = NAMED["adlittle"].lp()
    assert calls == []  # set-up builds no plan
    for r in (0.0, 0.2, 0.5):
        assert solve(lp, SolverConfig(r=r)).status == Status.OPTIMAL
    assert len(calls) == 1 and calls[0] is lp.A
    assert isinstance(lp.plan, linalg.PairPlan)


def test_warm_boxed_lp_is_bit_identical_to_a_fresh_one(rng):
    # the warm LP holds the plan and the start of its solves at the other r;
    # test_memoized_start_is_bit_identical_across_an_r_sweep checks the
    # corpus, the fixtures and the generated instances the same way
    for m, n in ((3, 8), (10, 30), (25, 60)):
        lp = random_lp(rng, m=m, n=n, bounded="all")[0]
        for r in (0.0, 0.5, 0.2):
            warm, cold = solve(lp, SolverConfig(r=r)), solve(fresh(lp), SolverConfig(r=r))
            assert solve_bytes(warm) == solve_bytes(cold), (m, n, r)


def test_choose_start_memoizes_per_lp(monkeypatch):
    lp = make_lp([[1.0, 1.0]], [10.0], [-1.0, -1.0])
    calls = []

    def counted(*args, _x2=galp.solver.starting_point_x2):
        calls.append(args)
        return _x2(*args)

    monkeypatch.setattr(galp.solver, "starting_point_x2", counted)
    first, second = choose_start(lp), choose_start(lp)
    assert len(calls) == 1
    assert np.array_equal(first, second) and np.array_equal(first, lp.start)
    # each call returns a fresh, writeable copy; the memo itself is read-only
    assert first.flags.writeable and not lp.start.flags.writeable
    assert not np.shares_memory(first, second) and not np.shares_memory(first, lp.start)


def test_iteration_zero_report_owns_its_x():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    report = solve(lp, SolverConfig(r=0.0, max_iterations=0))
    assert report.status == Status.ITERATION_LIMIT and report.iterations == 0
    assert report.x.flags.writeable
    assert report.x is not lp.start and not np.shares_memory(report.x, lp.start)
    memo = lp.start.copy()
    report.x[:] = -1.0
    assert np.array_equal(lp.start, memo)
    assert np.array_equal(solve(lp, SolverConfig(r=0.0, max_iterations=0)).x, memo)


def general_scaling_diagonals(x, p):
    """H's diagonal and clamp count with the box terms formed whatever I holds: the
    form ``scaling_diagonals`` had before it skipped them for an empty I, kept as its oracle."""
    x = np.asarray(x, dtype=float)
    slack = p.upper_I - x[p.bounded]
    if np.fmin.reduce(x, initial=np.inf) <= 0 or np.fmin.reduce(slack, initial=np.inf) <= 0:
        raise NotInterior("point must satisfy 0 < x and x_I < u_I strictly")
    with np.errstate(over="ignore"):
        h, slack_h = x ** (p.r - 2.0), slack ** (p.r - 2.0)
    h[p.bounded] += slack_h
    clamped = np.minimum(np.maximum(h, CLAMP_LO), CLAMP_HI)
    return clamped, int(np.count_nonzero(clamped != h))


def general_duals(lp, x, reduced):
    """(w, s) from the reduced costs, with w_I gathered and scattered whatever I holds."""
    w = np.zeros(lp.n)
    idx = lp.bounded
    w[idx] = -(x[idx] / lp.upper_I) * reduced[idx]
    return w, reduced + w


def test_box_free_pass_matches_general_formulas(monkeypatch, rng):
    # every point of every solve is checked: the pass and the state as the
    # solver calls them against the general formulas, bit for bit (tobytes
    # and repr tell -0.0 from +0.0)
    points = Counter()

    def checked_pass(lp, x, p, resid, _real=galp.solver.recover_duals):
        pt = _real(lp, x, p, resid)
        h, clamps = general_scaling_diagonals(x, p)
        assert scaling_diagonals(x, p).h.tobytes() == h.tobytes()
        assert pt.hinv.tobytes() == (1.0 / h).tobytes() and pt.clamps == clamps
        w, s = general_duals(lp, x, lp.c - lp.rmatvec(pt.y))
        assert pt.w.tobytes() == w.tobytes() and pt.s.tobytes() == s.tobytes()
        points[lp.upper_I.size == 0] += 1
        return pt

    def checked_state(lp, x, resid, pt, *args, _real=galp.solver._state, **kwargs):
        state = _real(lp, x, resid, pt, *args, **kwargs)
        cx = float(lp.c @ x)
        gap = cx - float(lp.b @ pt.y) + float(lp.upper_I @ pt.w[lp.bounded])
        assert repr(state.record.rgap) == repr(gap / (abs(cx) + 1.0))
        return state

    monkeypatch.setattr(galp.solver, "recover_duals", checked_pass)
    monkeypatch.setattr(galp.solver, "_state", checked_state)
    corpus = [NAMED[name].lp() for name in NETLIB_PROBLEMS]
    assert all(lp.upper_I.size == 0 for lp in corpus)
    for lp in corpus:
        for r in R_GRID:
            assert solve(lp, SolverConfig(r=r)).status == Status.OPTIMAL
    # a random I-empty LP, and a boxed one on the general path; each gets an
    # empty column of cost -0.0, whose reduced cost -0.0 - 0.0 is -0.0 and s_j +0.0
    for bounded in ("none", "some"):
        lp = random_lp(rng, m=4, n=9, bounded=bounded)[0]
        lp = make_lp(np.c_[lp.A.toarray(), np.zeros(4)], lp.b, np.r_[lp.c, -0.0], np.r_[lp.upper, np.inf])
        for r in R_GRID:
            assert solve(lp, SolverConfig(r=r)).iterations > 0
    assert points[True] > 800 and points[False] > 8

    # the interior check on x holds without I: a 0 entry raises, a NaN does not
    p = GaugeParams(0.5, np.zeros(0, dtype=np.intp), np.zeros(0))
    for fn in (lambda x: scaling_diagonals(x, p).h, lambda x: penalty_gradient(x, np.ones(3), 1.0, p)):
        with pytest.raises(NotInterior):
            fn(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(NotInterior):
            fn(np.array([np.nan, 0.0, 2.0]))
        assert np.isnan(fn(np.array([1.0, np.nan, 2.0]))).any()


def solve_bytes(report):
    """Everything a solve reports: status, iterations, every trace record, and the bytes of x, y, w and s."""
    trace = repr([dataclasses.astuple(t) for t in report.trace])
    arrays = (getattr(report, f).tobytes() for f in ("x", "y", "w", "s"))
    return (report.status, report.iterations, trace, *arrays)


def test_memoized_start_is_bit_identical_across_an_r_sweep(monkeypatch, sweep_runs):
    # one StandardLP per problem, solved at every r, against a fresh LP per
    # cell: every solve after the first reuses the LP's start and plan
    cases, reports = sweep_runs
    calls = {}

    def counted(lp, _x2=galp.solver.starting_point_x2):
        calls[id(lp)] = calls.get(id(lp), 0) + 1
        return _x2(lp)

    monkeypatch.setattr(galp.solver, "starting_point_x2", counted)
    lps = []
    for label, member, grid in cases:
        lp = member.lp()
        lps.append(lp)  # keeps every id() in calls distinct
        for r in grid:
            assert solve_bytes(solve(lp, SolverConfig(r=r))) == solve_bytes(reports[label, r]), (label, r)
        # every LP memoizes its start, fix01's x1 included, and tries x2 once
        assert lp.start is not None and calls[id(lp)] == 1, label


def test_sweep_cells_are_pinned(sweep_runs):
    # the fixture and generated cells (the corpus is pinned by
    # netlib_iterations.csv); the file detects change and claims no
    # correctness, so a changed cell fails until CHANGES.md explains it
    cases, reports = sweep_runs
    cells = [["label", "r", "status", "iterations"]] + [
        [label, f"{r:g}", reports[label, r].status.value, str(reports[label, r].iterations)]
        for label, _, grid in cases
        if label not in NETLIB_PROBLEMS
        for r in grid
    ]
    with open(os.path.join(DATA, "sweep_cells.csv"), newline="") as fh:
        assert cells == list(csv.reader(fh))


def test_empty_row_fixture_fails_at_iteration_zero(sweep_runs):
    # fix01's row 2 is empty with b = -2.305: x2's factor fails, the start is
    # x1, and x1's own pass fails on the same row, so the report is the one
    # an unstarted solve gives, NaN arrays and an empty trace
    _, reports = sweep_runs
    lp = NAMED["fix01"].lp()
    nan = [np.full(k, np.nan).tobytes() for k in (lp.n, lp.m, lp.n, lp.n)]
    for r in (0.0, 0.2, 0.5):
        assert solve_bytes(reports["fix01", r]) == (Status.NUMERICAL_FAILURE, 0, "[]", *nan), r
    report = solve(lp, SolverConfig())
    assert np.isnan([report.objective, report.objective_original, report.rf, report.rgap]).all()
    assert type(report.rf) is np.float64
