"""Acceptance gate: every release criterion with its pinned tolerance.

Run with -s to see one PASS/FAIL line per criterion.
"""

import glob
import os
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

import galp.cli
from galp.directions import newton_direction
from galp.mps import MpsError, parse_mps, read_mps, write_mps
from galp.penalty import GaugeParams, penalized_objective, penalty_gradient, scaling_diagonals
from galp.solver import SolverConfig, Status, solve

from conftest import FIXTURES, NETLIB_PROBLEMS, pass_at, random_lp, random_interior_point
from families import NAMED, PANEL
from simplex_oracle import simplex_solve

# the gate's own reference grid, kept apart from the CLI's default
# (``galp.cli.R_GRID``); test_r_grid_is_the_cli_default holds them equal
R_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)

# Reference iteration counts for the mini-corpus at eps = 1e-8, cap 300,
# one column per value in R_GRID.
REFERENCE_ITERATIONS = {
    "afiro": (25, 23, 23, 21, 21, 20, 21, 22),
    "sc50a": (33, 32, 23, 23, 23, 22, 23, 25),
    "sc50b": (23, 23, 22, 21, 21, 21, 20, 21),
    "adlittle": (34, 34, 33, 33, 34, 37, 40, 57),
    "blend": (40, 41, 40, 43, 44, 37, 44, 49),
}

ITERATION_FACTOR = 2.0
OBJECTIVE_RTOL = 1e-6
DIRECTION_TOL = 1e-8
GRADIENT_RTOL = 1e-6
CONTINUITY_RTOL = 1e-4
SOLUTION_TOL = 1e-4
COMPLEMENTARITY_TOL = 1e-6
STRICT_MARGIN = 1e-3


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"\n{label}: FAIL")
        raise
    print(f"\n{label}: PASS")


def test_r_grid_is_the_cli_default():
    assert R_GRID == galp.cli.R_GRID


def test_criterion_1_corpus_iteration_counts(sweep_runs):
    with criterion("criterion 1 (corpus convergence, iteration band)"):
        _, reports = sweep_runs
        for name in NETLIB_PROBLEMS:
            for r, ref in zip(R_GRID, REFERENCE_ITERATIONS[name]):
                report = reports[(name, r)]
                assert report.status == Status.OPTIMAL, (name, r, report.status)
                assert ref / ITERATION_FACTOR <= report.iterations <= ref * ITERATION_FACTOR, (
                    name,
                    r,
                    report.iterations,
                    ref,
                )


def test_criterion_2_corpus_objectives_match_simplex(sweep_runs):
    with criterion("criterion 2 (corpus objectives vs simplex oracle)"):
        _, reports = sweep_runs
        for name in NETLIB_PROBLEMS:
            lp = NAMED[name].lp()
            upper = lp.upper if len(lp.bounded) else None
            _, oracle_obj = simplex_solve(lp.A.toarray(), lp.b, lp.c, upper=upper)
            for r in (0.0, 0.2, 0.5):
                got = reports[(name, r)].objective
                assert got == pytest.approx(oracle_obj, rel=OBJECTIVE_RTOL), (name, r)


def test_criterion_3_low_r_at_least_as_robust(sweep_runs):
    with criterion("criterion 3 (r = 0.2 solves at least as many as r = 0.7)"):
        _, reports = sweep_runs
        solved = {
            r: sum(reports[(name, r)].status == Status.OPTIMAL for name in NETLIB_PROBLEMS)
            for r in R_GRID
        }
        assert solved[0.2] >= solved[0.7]


def test_criterion_4_directions_match_dense_oracles():
    with criterion("criterion 4 (directions vs dense projector and Newton limit)"):
        rng = np.random.default_rng(411)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m + 1, 11))
            lp, _ = random_lp(rng, m=m, n=n)
            x = random_interior_point(rng, lp)
            r = float(rng.uniform(0.05, 0.9))
            p = GaugeParams(r=r, upper=lp.upper)
            d = pass_at(lp, x, r).d

            # dense projector oracle
            hs = np.sqrt(scaling_diagonals(x, p).h)
            B = lp.A.toarray() / hs
            P = np.eye(n) - B.T @ np.linalg.pinv(B @ B.T) @ B
            oracle = -(P @ (lp.c / hs)) / hs
            scale = 1.0 + np.linalg.norm(oracle, np.inf)
            assert np.linalg.norm(d - oracle, np.inf) <= DIRECTION_TOL * scale

            # mu (1-r) d(mu) is affine in mu: three samples are collinear
            pts = [mu * (1.0 - r) * newton_direction(lp, x, mu, p) for mu in (0.5, 1.0, 1.5)]
            mid = 0.5 * (pts[0] + pts[2])
            assert np.linalg.norm(mid - pts[1], np.inf) <= DIRECTION_TOL * (
                1.0 + np.linalg.norm(pts[1], np.inf)
            )


def test_criterion_5_solver_invariants():
    with criterion("criterion 5 (iteration invariants)"):
        rng = np.random.default_rng(55)

        # finite-difference gradient check for the penalized objective
        for _ in range(25):
            n = 5
            upper = np.where(rng.random(n) < 0.5, rng.uniform(2.0, 4.0, n), np.inf)
            p = GaugeParams(r=float(rng.uniform(0.1, 0.9)), upper=upper)
            x = np.minimum(rng.uniform(0.3, 1.5, n), 0.9 * upper)
            c = rng.normal(size=n)
            mu = float(rng.uniform(0.1, 2.0))
            grad = penalty_gradient(x, c, mu, p)
            for j in range(n):
                step = 1e-6 * (1.0 + abs(x[j]))
                e = np.zeros(n)
                e[j] = step
                fd = (
                    penalized_objective(x + e, c, mu, p) - penalized_objective(x - e, c, mu, p)
                ) / (2 * step)
                assert grad[j] == pytest.approx(fd, rel=GRADIENT_RTOL, abs=1e-6)

        # r -> 0 continuity of the descent direction
        for _ in range(10):
            lp, _ = random_lp(rng, m=3, n=7)
            x = random_interior_point(rng, lp)

            assert_allclose(pass_at(lp, x, 1e-6).d, pass_at(lp, x, 0.0).d, rtol=CONTINUITY_RTOL, atol=1e-8)

        # full solves: interiority, kernel membership of the descent move,
        # residual contraction, monotone objective once feasible
        for _ in range(10):
            lp, _ = random_lp(rng, m=3, n=8, bounded="all")
            cfg = SolverConfig(r=0.2)
            report = solve(lp, cfg)
            assert report.status == Status.OPTIMAL
            trace = report.trace
            for k in range(1, len(trace)):
                assert trace[k].min_x > 0.0
                if trace[k - 1].rf > cfg.epsilon:
                    assert trace[k].rf < trace[k - 1].rf
                else:
                    assert trace[k].objective <= trace[k - 1].objective + 1e-9 * (
                        1.0 + abs(trace[k - 1].objective)
                    )

        for _ in range(10):
            lp, _ = random_lp(rng, m=4, n=9)
            x = random_interior_point(rng, lp)
            d = pass_at(lp, x, 0.2).d
            bound = 1e-6 * (1.0 + np.abs(lp.A).max() * np.linalg.norm(d, np.inf))
            assert np.linalg.norm(lp.A @ d, np.inf) <= bound


def _oracle_duals(lp, x_oracle):
    """Duals from the oracle's basis; None if the vertex is degenerate."""
    A = lp.A.toarray()
    tol = 1e-7
    at_lower = x_oracle <= tol
    gap = lp.upper - x_oracle
    at_upper = np.isfinite(lp.upper) & (gap <= tol)
    basic = ~(at_lower | at_upper)
    if basic.sum() != lp.m:
        return None
    AB = A[:, basic]
    if np.linalg.matrix_rank(AB) < lp.m:
        return None
    y = np.linalg.solve(AB.T, lp.c[basic])
    reduced = lp.c - A.T @ y
    return y, reduced, at_lower, at_upper, basic


def test_criterion_6_random_bounded_solutions():
    with criterion("criterion 6 (random bounded LPs: solution, complementarity)"):
        rng = np.random.default_rng(66)
        accepted = 0
        attempts = 0
        while accepted < 50:
            attempts += 1
            assert attempts < 500, "could not find enough nondegenerate instances"
            lp, _ = random_lp(rng, m=int(rng.integers(2, 5)), n=int(rng.integers(5, 9)), bounded="all")
            x_oracle, obj_oracle = simplex_solve(lp.A.toarray(), lp.b, lp.c, upper=lp.upper)
            duals = _oracle_duals(lp, x_oracle)
            if duals is None:
                continue
            _, reduced, at_lower, at_upper, basic = duals
            scale = 1.0 + np.linalg.norm(lp.c, np.inf)
            # strict complementarity screen, from the oracle only
            if np.any(reduced[at_lower] <= STRICT_MARGIN * scale):
                continue
            if np.any(reduced[at_upper] >= -STRICT_MARGIN * scale):
                continue
            prim_gap = np.minimum(x_oracle, np.where(np.isfinite(lp.upper), lp.upper - x_oracle, np.inf))
            if np.any(prim_gap[basic] <= STRICT_MARGIN * scale):
                continue
            accepted += 1

            report = solve(lp, SolverConfig(r=0.2))
            assert report.status == Status.OPTIMAL
            xs = 1.0 + np.linalg.norm(x_oracle, np.inf)
            assert np.linalg.norm(report.x - x_oracle, np.inf) <= SOLUTION_TOL * xs
            assert abs(report.objective - obj_oracle) <= SOLUTION_TOL * (1.0 + abs(obj_oracle))
            # complementarity of the returned primal-dual pair
            products = np.abs(report.x * report.s)
            assert products.max() <= COMPLEMENTARITY_TOL * scale * xs
            # strict complementarity: each index has a clearly active side
            dual_mag = np.abs(report.s) + np.abs(report.w)
            margin = np.maximum(np.minimum(report.x, lp.upper - report.x), dual_mag)
            assert margin.min() > STRICT_MARGIN * scale


def test_fixture_solves_never_raise_and_optima_are_true():
    with criterion("fixture gate (no solve raises; every Optimal matches HiGHS)"):
        optimal = 0
        fixtures = PANEL["fixtures"]
        for member in fixtures.members:
            lp = member.lp()
            for r in fixtures.grid:
                report = solve(lp, SolverConfig(r=r))
                if report.status != Status.OPTIMAL:
                    continue
                optimal += 1
                assert report.objective == pytest.approx(member.highs, rel=OBJECTIVE_RTOL), (member.name, r)
        # fix06, fix08, fix09 and fix18 at every r, and fix16 at r = 0.5; a floor, not a target
        assert optimal >= 13


def test_criterion_7_parser_round_trip_and_rejection():
    with criterion("criterion 7 (parser round-trip and malformed rejection)"):
        clean = sorted(glob.glob(os.path.join(FIXTURES, "fix*.mps")))
        assert len(clean) == 20
        for member in PANEL["fixtures"].members + PANEL["corpus"].members:
            raw = member.raw()
            assert parse_mps(write_mps(raw)) == raw, member.name
        malformed = sorted(
            p for p in glob.glob(os.path.join(FIXTURES, "*.mps")) if p not in clean
        )
        assert len(malformed) == 10
        for path in malformed:
            with pytest.raises(MpsError):
                read_mps(path)
