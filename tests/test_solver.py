import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from galp import directions, linalg
from galp.model import StandardLP, to_standard_form
from galp.mps import read_mps
from galp.penalty import GaugeParams
from galp.solver import (
    STEP_AGGRESSIVE,
    SolverConfig,
    Status,
    _factor_at,
    _state,
    choose_start,
    iterate_once,
    recover_duals,
    relative_gap,
    solve,
    starting_point_x1,
    starting_point_x2,
)

from conftest import (
    NETLIB_PROBLEMS,
    factor_at,
    make_lp,
    netlib_path,
    random_lp,
    sparse_product_normal,
)
from test_directions import masked_max_step


def x2(lp):
    return starting_point_x2(lp, linalg.normal_plan(lp.A))


def start(lp):
    return choose_start(lp, linalg.normal_plan(lp.A))


def step(state, lp, cfg):
    p = GaugeParams(r=cfg.r, upper=lp.upper)
    return iterate_once(state, lp, cfg, *_factor_at(state.x, p, linalg.normal_plan(lp.A)))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r=1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
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
    assert_allclose(x2(lp), [0.515, 0.515])

    lp = make_lp([[1.0, 1.0]], [0.0], [0.0, 0.0])
    assert_allclose(x2(lp), [0.01, 0.01])

    # min-norm solution (1, -1): the shift is driven by the negative entry
    lp = make_lp([[1.0, -1.0]], [2.0], [0.0, 0.0])
    assert_allclose(x2(lp), [2.5, 0.5])


def test_starting_point_x2_respects_bounds():
    lp = make_lp([[1.0, 1.0]], [100.0], [0.0, 0.0], upper=[2.0, np.inf])
    x = x2(lp)
    assert 0.0 < x[0] <= 0.99 * 2.0


def test_choose_start_branches():
    # min x1 = 2 >= 1 and min x2 = 0.515 < 2: keep x1
    lp = make_lp([[1.0, 1.0]], [1.0], [-1.0, -1.0])
    assert_allclose(start(lp), starting_point_x1(lp))
    # min x2 ~ 5 beats min x1 = 2: switch to x2
    lp = make_lp([[1.0, 1.0]], [10.0], [-1.0, -1.0])
    assert_allclose(start(lp), x2(lp))
    # min x1 = 0.1 < 1 forces x2 regardless
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 1.0], upper=[1.0, 1.0])
    assert starting_point_x1(lp).min() < 1.0
    assert_allclose(start(lp), x2(lp))


def test_recover_duals_unbounded_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    x = np.array([0.5, 0.5])
    hinv, F = factor_at(lp, x, 0.0)
    y, w, s = recover_duals(lp, x, hinv, F)
    assert_allclose(y, [0.5])
    assert_allclose(w, [0.0, 0.0])
    assert_allclose(s, [0.5, -0.5])


def test_recover_duals_bounded_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0], upper=[1.0, np.inf])
    x = np.array([0.5, 0.5])
    hinv, F = factor_at(lp, x, 0.0)
    y, w, s = recover_duals(lp, x, hinv, F)
    assert_allclose(y, [1.0 / 3.0])
    assert_allclose(w, [-1.0 / 3.0, 0.0])
    assert_allclose(s, [1.0 / 3.0, -1.0 / 3.0])


def test_relative_gap_identity(rng):
    # at a feasible x the gap equals <s, x> + <w_I, u_I - x_I>
    for _ in range(20):
        lp, x = random_lp(rng, m=3, n=6, bounded="some")
        hinv, F = factor_at(lp, x, 0.3)
        y, w, s = recover_duals(lp, x, hinv, F)
        idx = lp.bounded
        direct = float(s @ x) + float(w[idx] @ (lp.upper[idx] - x[idx]))
        expected = direct / (abs(float(lp.c @ x)) + 1.0)
        assert relative_gap(lp, x, y, w) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def _fresh_state(lp, x, r=0.0):
    hinv, F = factor_at(lp, x, r)
    return _state(lp, x, *recover_duals(lp, x, hinv, F))


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
    state = _fresh_state(lp, start(lp), r=cfg.r)
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
    hinv, F = factor_at(lp, state.x, 0.0)
    y_pre, w_pre, s_pre = recover_duals(lp, state.x, hinv, F)
    assert_allclose(out.y, y_pre)
    assert_allclose(out.s, s_pre)


def shifted_matrix_factor(M):
    """Cholesky of M + rho*diag(M) with the m x m diagonal matrix formed."""
    diag = np.diag(M).copy()
    for rho in linalg.REGULARIZATIONS:
        try:
            L = scipy.linalg.cholesky(M + rho * np.diag(diag), lower=True)
        except scipy.linalg.LinAlgError:
            continue
        if np.min(np.diag(L)) ** 2 > 1e-30:
            return linalg.CholeskyFactor(L=L, rho=rho)
    raise linalg.FactorizationFailed("rank deficient")


def lower_factor_solve(F, rhs):
    return scipy.linalg.cho_solve((F.L, True), rhs, check_finite=False)


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_solve_bit_identical_to_sparse_product_kernel(monkeypatch, r):
    cfg = SolverConfig(r=r)
    lps = [to_standard_form(read_mps(netlib_path(name)))[0] for name in NETLIB_PROBLEMS]
    planned = [solve(lp, cfg) for lp in lps]

    monkeypatch.setattr(linalg, "normal_plan", lambda A: A)
    monkeypatch.setattr(linalg, "assemble_normal", sparse_product_normal)
    monkeypatch.setattr(linalg, "factor", shifted_matrix_factor)
    monkeypatch.setattr(linalg, "solve", lower_factor_solve)
    monkeypatch.setattr(directions, "solve", lower_factor_solve)
    for lp, new in zip(lps, planned):
        old = solve(lp, cfg)
        assert new.status == old.status == Status.OPTIMAL
        assert [dataclasses.astuple(t) for t in new.trace] == [dataclasses.astuple(t) for t in old.trace]
        assert np.array_equal(new.x, old.x)


def numpy_cholesky_factor(M):
    """Regularized factor by np.linalg.cholesky, the shift applied to a copy of M."""
    if not np.all(np.isfinite(M)):
        raise linalg.NonFiniteInput("normal matrix has non-finite entries")
    diag = np.diag(M)
    for rho in linalg.REGULARIZATIONS:
        shifted = M
        if rho != 0.0:
            shifted = M.copy()
            np.fill_diagonal(shifted, diag + rho * diag)
        try:
            L = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        if np.min(np.diag(L)) ** 2 > 1e-30:
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
    lps = [to_standard_form(read_mps(netlib_path(name)))[0] for name in NETLIB_PROBLEMS]
    lapack = [solve(lp, cfg) for lp in lps]

    monkeypatch.setattr(linalg, "factor", numpy_cholesky_factor)
    monkeypatch.setattr(linalg, "solve", upper_factor_solve)
    monkeypatch.setattr(directions, "solve", upper_factor_solve)
    for name, lp, new in zip(NETLIB_PROBLEMS, lps, lapack):
        old = solve(lp, cfg)
        assert new.status == old.status == Status.OPTIMAL, name
        assert new.iterations == old.iterations, name
        # the integer fields (iteration, clamps) must match exactly under this tolerance
        trace = [[dataclasses.astuple(t) for t in rep.trace] for rep in (new, old)]
        assert within_cross_library_tol(*trace), name
        assert within_cross_library_tol(new.x, old.x), name


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_solve_factors_once_per_point(monkeypatch, r):
    calls = []
    factor = linalg.factor

    def counted(M):
        calls.append(M.shape)
        return factor(M)

    monkeypatch.setattr(linalg, "factor", counted)
    for name in NETLIB_PROBLEMS:
        lp = to_standard_form(read_mps(netlib_path(name)))[0]
        calls.clear()
        report = solve(lp, SolverConfig(r=r))
        assert report.status == Status.OPTIMAL
        # x2's start factor, then x0 .. x_{k-1} once each; the final point is not factored
        assert len(calls) == report.iterations + 1, name


def dense_column_lp(rng):
    """Boxed, feasible LP whose 8 full columns push normal_plan onto the ProductPlan path."""
    A = sp.random(30, 60, density=0.1, format="lil", random_state=rng)
    A[:, :8] = rng.uniform(-1, 1, size=(30, 8))
    A = sp.csc_matrix(A)
    x_feas = rng.uniform(0.5, 1.5, size=60)
    lp = StandardLP(A=A, b=A @ x_feas, c=rng.uniform(-1, 1, size=60), upper=x_feas + 1.0)
    assert isinstance(linalg.normal_plan(lp.A), linalg.ProductPlan)
    return lp


def test_solve_builds_no_transpose(monkeypatch, rng):
    corpus = [to_standard_form(read_mps(netlib_path(name)))[0] for name in NETLIB_PROBLEMS]
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
    lps = [to_standard_form(read_mps(netlib_path(name)))[0] for name in NETLIB_PROBLEMS]
    lps += [random_lp(rng, m=10, n=30, bounded="all")[0], dense_column_lp(rng)]
    reports = [solve(lp, cfg) for lp in lps]

    monkeypatch.setattr("galp.solver.max_step", masked_max_step)
    for lp, new in zip(lps, reports):
        old = solve(lp, cfg)
        assert new.status == old.status
        assert [dataclasses.astuple(t) for t in new.trace] == [dataclasses.astuple(t) for t in old.trace]
        assert np.array_equal(new.x, old.x)
