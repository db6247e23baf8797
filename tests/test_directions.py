import numpy as np
import pytest
from numpy.testing import assert_allclose

from galp.directions import max_step, newton_direction, reproject
from galp.penalty import GaugeParams, scaling_diagonals

from conftest import make_lp, pass_at, random_interior_point, random_lp


def dense_projected_direction(lp, x, r):
    """Dense oracle: d = -H^(-1/2) P H^(-1/2) c with an explicit projector."""
    h = scaling_diagonals(x, GaugeParams(r, lp.bounded, lp.upper_I)).h
    hs = np.sqrt(h)
    B = lp.A.toarray() / hs  # A H^(-1/2)
    P = np.eye(lp.n) - B.T @ np.linalg.pinv(B @ B.T) @ B
    return -(P @ (lp.c / hs)) / hs


def test_descent_hand_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [1.0, 0.0])
    x = np.array([0.5, 0.5])
    pt = pass_at(lp, x, 0.0)
    assert_allclose(pt.y, [0.5])
    assert_allclose(lp.c - lp.A.T @ pt.y, [0.5, -0.5])
    assert_allclose(pt.d, [-0.125, 0.125])
    assert lp.c @ pt.d == pytest.approx(-0.125)


def test_descent_zero_when_c_in_row_space():
    # c = A^t y means s = 0 at the exact minimizer over the affine set
    lp = make_lp([[1.0, 1.0]], [1.0], [2.0, 2.0])
    x = np.array([0.3, 0.7])
    pt = pass_at(lp, x, 0.4)
    assert_allclose(lp.c - lp.A.T @ pt.y, np.zeros(2), atol=1e-12)
    assert_allclose(pt.d, np.zeros(2), atol=1e-12)


def test_descent_matches_dense_projector(rng):
    for _ in range(30):
        lp, _ = random_lp(rng, m=3, n=6)
        x = random_interior_point(rng, lp)
        r = rng.uniform(0.0, 0.9)
        d = pass_at(lp, x, r).d
        assert_allclose(d, dense_projected_direction(lp, x, r), rtol=1e-8, atol=1e-10)


def test_descent_is_nonascent(rng):
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 9))
        lp, _ = random_lp(rng, m=m, n=n)
        x = random_interior_point(rng, lp)
        d = pass_at(lp, x, float(rng.uniform(0.0, 0.95))).d
        assert lp.c @ d <= 1e-10 * (1.0 + np.linalg.norm(lp.c) * np.linalg.norm(d))


def test_descent_stays_in_kernel(rng):
    for _ in range(50):
        lp, _ = random_lp(rng, m=4, n=8)
        x = random_interior_point(rng, lp)
        d = pass_at(lp, x, float(rng.uniform(0.0, 0.9))).d
        bound = 1e-6 * (1.0 + np.abs(lp.A).max() * np.linalg.norm(d, np.inf))
        assert np.linalg.norm(lp.A @ d, np.inf) <= bound


def test_feasibility_hand_case():
    lp = make_lp([[1.0, 1.0]], [1.0], [0.0, 0.0])
    x = np.array([1.0, 1.0])  # residual b - Ax = -1
    dx = pass_at(lp, x, 0.0).dx
    assert_allclose(dx, [-0.5, -0.5])
    assert_allclose(lp.A @ dx, lp.b - lp.A @ x)


def test_feasibility_residual_contraction(rng):
    for _ in range(30):
        lp, _ = random_lp(rng, m=3, n=7)
        x = random_interior_point(rng, lp)
        dx = pass_at(lp, x, float(rng.uniform(0.0, 0.9))).dx
        resid = lp.b - lp.A @ x
        for t in (0.25, 0.65, 1.0):
            after = lp.b - lp.A @ (x + t * dx)
            assert_allclose(after, (1.0 - t) * resid, rtol=1e-8, atol=1e-10)


def test_reproject_annihilates_row_space(rng):
    lp, _ = random_lp(rng, m=3, n=6)
    x = random_interior_point(rng, lp)
    pt = pass_at(lp, x, 0.3)
    d = pt.d
    # contaminate a kernel direction with a row-space component
    bad = d + 0.1 * pt.hinv * (lp.A.T @ rng.normal(size=lp.m))
    fixed = reproject(bad, lp, pt.F, pt.hinv)
    assert np.linalg.norm(lp.A @ fixed, np.inf) <= 1e-10 * (1.0 + np.linalg.norm(fixed))
    assert_allclose(fixed, d, rtol=1e-8, atol=1e-10)


def test_reproject_does_not_grow_clean_direction(rng):
    lp, _ = random_lp(rng, m=3, n=6)
    x = random_interior_point(rng, lp)
    pt = pass_at(lp, x, 0.0)
    d = pt.d
    fixed = reproject(d, lp, pt.F, pt.hinv)
    assert np.linalg.norm(fixed) <= np.linalg.norm(d) * (1.0 + 1e-12)
    assert_allclose(fixed, d, rtol=1e-10, atol=1e-12)


def test_newton_limit_recovers_descent(rng):
    lp, _ = random_lp(rng, m=3, n=6)
    x = random_interior_point(rng, lp)
    r = 0.4
    d = pass_at(lp, x, r).d
    errs = []
    for mu in (1e-4, 1e-6):
        dn = newton_direction(lp, x, mu, GaugeParams(r, lp.bounded, lp.upper_I))
        errs.append(np.linalg.norm(mu * (1.0 - r) * dn - d, np.inf))
    assert errs[1] <= 1e-4 * (1.0 + np.linalg.norm(d, np.inf))
    # the gap to the limit closes at first order in mu
    assert errs[1] <= 1e-2 * errs[0] + 1e-12


def test_newton_three_point_collinearity(rng):
    # mu (1-r) d(mu) is affine in mu, so three samples are collinear
    lp, _ = random_lp(rng, m=3, n=6)
    x = random_interior_point(rng, lp)
    p = GaugeParams(0.5, lp.bounded, lp.upper_I)
    mus = (0.5, 1.0, 1.5)
    pts = [mu * (1.0 - p.r) * newton_direction(lp, x, mu, p) for mu in mus]
    midpoint = 0.5 * (pts[0] + pts[2])
    assert_allclose(midpoint, pts[1], rtol=1e-8, atol=1e-8)


def test_newton_rejects_bad_parameters(rng):
    lp, _ = random_lp(rng, m=2, n=4)
    x = random_interior_point(rng, lp)
    with pytest.raises(ValueError):
        newton_direction(lp, x, 1.0, GaugeParams(0.0, lp.bounded, lp.upper_I))
    with pytest.raises(ValueError):
        newton_direction(lp, x, 0.0, GaugeParams(0.5, lp.bounded, lp.upper_I))


def masked_max_step(x, upper, dir, cap=None):
    """Ratio test over boolean masks: the form max_step replaced, kept as its oracle.

    Coordinate j counts when dir_j is nonzero and not NaN and the wall it heads
    for is not at +inf: x_j < +inf toward 0, u_j - x_j < +inf toward u_j.  A NaN
    ratio among those (x_j NaN, x_j = u_j = +inf, -inf over -inf) makes the step NaN.
    """
    x = np.asarray(x, dtype=float)
    dir = np.asarray(dir, dtype=float)
    # inf - inf and inf/inf: NaN ratios, which count; x_j over a subnormal dir_j: +inf
    with np.errstate(invalid="ignore", over="ignore"):
        neg = (dir < 0) & (x != np.inf)
        pos = (dir > 0) & (upper - x != np.inf)
        groups = (-x[neg] / dir[neg], (upper[pos] - x[pos]) / dir[pos])
    candidates = [np.min(ratios) for ratios in groups if ratios.size]
    if cap is not None:
        candidates.append(float(cap))
    if np.isnan(candidates).any():
        return np.nan
    return float(min(candidates)) if candidates else np.inf


def ratio_test_cases(rng):
    """(x, upper, dir) triples: unbounded, all-boxed and mixed upper, with zero and NaN dir."""
    for k in range(300):
        n = int(rng.integers(1, 12))
        kind = k % 3
        if kind == 0:
            upper = np.full(n, np.inf)
        elif kind == 1:
            upper = rng.uniform(0.5, 4.0, n)
        else:
            upper = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 4.0, n), np.inf)
        x = np.minimum(rng.uniform(1e-3, 2.0, n), 0.99 * upper)
        dir = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3, n)
        if k % 5 == 0:
            dir = np.abs(dir)  # toward upper only; infinite upper then gives +inf
        yield x, upper, dir
        zero = rng.random(n) < 0.4
        yield x, upper, np.where(zero, 0.0, dir)
        yield x, upper, np.where(zero, np.nan, dir)
        # x sitting on its bounds where dir is zero: no 0/0
        at = np.where(zero, np.where(np.isfinite(upper), upper, 0.0), x)
        yield at, upper, np.where(zero, 0.0, dir)
    yield np.array([0.0, 2.0]), np.array([np.inf, 2.0]), np.array([0.0, 0.0])
    yield np.array([1.0, 1.0]), np.array([np.inf, 2.0]), np.array([np.nan, np.nan])
    yield np.array([1.0, 0.0]), np.array([2.0, np.inf]), np.array([-0.0, -1.0])
    yield np.empty(0), np.empty(0), np.empty(0)


def ratio_test_edge_cases(rng):
    """(x, upper, dir) triples with edge entries: dir 0.0, -0.0, NaN and +-inf, x on a
    wall (x_j = 0 or x_j = u_j) and u_j = +inf, mixed into random entries and then
    each edge dir against each wall and kind of u alone; then the same with x_j
    NaN, +inf and -inf, and x_j = 3 above u_j = 2; last, subnormal dir_j, whose
    ratio overflows to +inf unless x_j or u_j - x_j is tiny."""
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    for k in range(400):
        n = int(rng.integers(1, 12))
        upper = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 4.0, n), np.inf)
        x = np.minimum(rng.uniform(1e-3, 2.0, n), 0.99 * upper)
        wall = rng.integers(0, 3, n)  # 0: interior, 1: at 0, 2: at u_j where u_j is finite
        x = np.where(wall == 1, 0.0, x)
        x = np.where((wall == 2) & np.isfinite(upper), upper, x)
        dir = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3, n)
        edge = rng.random(n) < 0.5
        dir[edge] = rng.choice(specials, size=int(edge.sum()))
        if k >= 200:  # infinite x_j in 3 entries of 10, and a NaN in every fourth case
            inf = rng.random(n) < 0.3
            x[inf] = rng.choice(specials[3:], size=int(inf.sum()))
            if k % 4 == 0:
                x[rng.integers(0, n)] = np.nan
        yield x, upper, dir
    for d in specials:
        for xj, uj in (
            (0.0, np.inf), (1.0, np.inf), (0.0, 2.0), (1.0, 2.0), (2.0, 2.0), (3.0, 2.0),
            (np.nan, np.inf), (np.nan, 2.0), (np.inf, np.inf), (np.inf, 2.0), (-np.inf, np.inf), (-np.inf, 2.0),
        ):
            yield np.array([xj]), np.array([uj]), np.array([d])
    for d in (-1e-310, 1e-310, -5e-324, 5e-324):
        for xj, uj in ((1.0, np.inf), (1.0, 2.0), (1e-300, np.inf), (2.0 - 2.0**-52, 2.0), (0.0, 2.0)):
            yield np.array([xj, 2.0]), np.array([uj, np.inf]), np.array([d, 1.0])


def same_double(got, want):
    """Equal bit for bit up to NaN payload: the same value and sign of zero, or both NaN."""
    if np.isnan(got) or np.isnan(want):
        return bool(np.isnan(got) and np.isnan(want))
    return got == want and np.signbit(got) == np.signbit(want)


def test_max_step_matches_masked_oracle(rng):
    count = 0
    cases = list(ratio_test_cases(rng)) + list(ratio_test_edge_cases(rng))
    for x, upper, dir in cases:
        for cap in (None, 1.0, 0.25):
            got, want = max_step(x, upper, dir, cap=cap), masked_max_step(x, upper, dir, cap=cap)
            assert same_double(got, want), (x, upper, dir, cap, got, want)  # exact, +inf included
            count += 1
    assert count == 3 * (4 * 300 + 4 + 400 + 5 * 12 + 4 * 5)


def test_max_step_examples():
    upper = np.array([np.inf, 2.0])
    x = np.array([1.0, 1.0])
    # x1 shrinks to 0 at t=2, x2 hits its bound at t=1
    assert max_step(x, upper, np.array([-0.5, 1.0])) == pytest.approx(1.0)
    assert max_step(x, upper, np.array([-0.5, 0.0])) == pytest.approx(2.0)
    assert max_step(x, upper, np.array([1.0, 0.0])) == np.inf
    assert max_step(x, upper, np.array([1.0, 0.0]), cap=1.0) == pytest.approx(1.0)
    assert max_step(x, upper, np.array([-0.5, 1.0]), cap=0.25) == pytest.approx(0.25)


def test_max_step_boundary_consistency(rng):
    for _ in range(200):
        n = 5
        upper = np.where(rng.random(n) < 0.5, rng.uniform(1.5, 4.0, n), np.inf)
        x = rng.uniform(0.2, 1.2, n)
        x = np.minimum(x, 0.9 * upper)
        dir = rng.normal(size=n)
        t = max_step(x, upper, dir)
        if np.isfinite(t):
            at = x + t * dir
            assert np.min(at) >= -1e-12
            assert np.all(at <= upper + 1e-12)
            # some coordinate actually touches a wall
            gap = np.minimum(at, upper - at)
            assert np.min(gap) <= 1e-9


def test_direction_r_continuity(rng):
    lp, _ = random_lp(rng, m=3, n=6)
    x = random_interior_point(rng, lp)
    d0 = pass_at(lp, x, 0.0).d
    de = pass_at(lp, x, 1e-6).d
    assert_allclose(de, d0, rtol=1e-4, atol=1e-8)
