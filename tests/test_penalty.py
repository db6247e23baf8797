import numpy as np
import pytest
from numpy.testing import assert_allclose

from galp.penalty import (
    GaugeParams,
    NotInterior,
    RZeroUnsupported,
    penalized_objective,
    penalty_g_r,
    penalty_gradient,
    penalty_hessian_diag,
    scaling_diagonals,
    xi_r,
)

NO_UB = np.full(2, np.inf)


def params(r, upper):
    return GaugeParams(r=r, upper=np.asarray(upper, dtype=float))


def g_diagonal(x, p):
    """The gradient diagonal g, read off grad F = c - mu * G e at c = 0, mu = 1."""
    return -penalty_gradient(x, np.zeros(len(x)), 1.0, p)


def test_gauge_value():
    p = params(0.5, NO_UB)
    assert xi_r(np.array([1.0, 4.0]), p) == pytest.approx(9.0)


def test_gauge_out_of_domain_sentinel():
    for r in (0.0, 0.3, 0.7):
        p = params(r, NO_UB)
        assert xi_r(np.array([-1.0, 1.0]), p) == -np.inf


def test_gauge_positive_homogeneity():
    p = params(0.5, NO_UB)
    base = xi_r(np.array([1.0, 4.0]), p)
    for t in (0.5, 2.0, 7.0):
        assert xi_r(t * np.array([1.0, 4.0]), p) == pytest.approx(t * base)


def test_gauge_homogeneity_with_bounds(rng):
    # scaling u along with x preserves degree-1 homogeneity
    x = rng.uniform(0.2, 0.8, 3)
    u = np.array([1.0, 2.0, np.inf])
    for r in (0.2, 0.5, 0.8):
        for t in (0.5, 3.0):
            v1 = xi_r(t * x, GaugeParams(r=r, upper=t * u))
            v0 = xi_r(x, GaugeParams(r=r, upper=u))
            assert v1 == pytest.approx(t * v0, rel=1e-12)


def test_gauge_r_zero_geometric_mean():
    p = params(0.0, NO_UB)
    assert xi_r(np.array([1.0, 4.0]), p) == pytest.approx(2.0)
    assert xi_r(np.array([0.0, 4.0]), p) == 0.0
    u = np.array([2.0, np.inf])
    p = GaugeParams(r=0.0, upper=u)
    # (x1 * x2 * (u1 - x1))^(1/3)
    assert xi_r(np.array([1.0, 8.0]), p) == pytest.approx(2.0)


def test_penalty_value():
    p = params(0.5, NO_UB)
    assert penalty_g_r(np.array([1.0, 1.0]), p) == pytest.approx(-4.0)
    assert penalized_objective(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1.0, p) == pytest.approx(-3.0)


def test_penalty_finite_on_boundary():
    # differential barrier: the value stays finite where the gradient blows up
    p = params(0.5, NO_UB)
    assert np.isfinite(penalty_g_r(np.array([0.0, 1.0]), p))


def test_penalty_rejects_r_zero():
    p = params(0.0, NO_UB)
    with pytest.raises(RZeroUnsupported):
        penalty_g_r(np.array([1.0, 1.0]), p)


def test_penalty_off_domain_sentinel():
    p = params(0.5, NO_UB)
    assert penalty_g_r(np.array([-1.0, 1.0]), p) == np.inf
    assert penalized_objective(np.array([-1.0, 1.0]), np.zeros(2), 1.0, p) == np.inf


def test_scaling_diagonals_classic():
    p = GaugeParams(r=0.0, upper=np.array([np.inf]))
    sd = scaling_diagonals(np.array([0.5]), p)
    assert_allclose(sd.h, [4.0])
    assert_allclose(g_diagonal(np.array([0.5]), p), [2.0])


def test_scaling_diagonals_bounded_midpoint():
    for r in (0.5, 0.0):
        p = GaugeParams(r=r, upper=np.array([2.0]))
        sd = scaling_diagonals(np.array([1.0]), p)
        assert_allclose(sd.h, [2.0])
        assert_allclose(g_diagonal(np.array([1.0]), p), [0.0])


def test_scaling_diagonals_not_interior():
    p = GaugeParams(r=0.3, upper=np.array([2.0, np.inf]))
    with pytest.raises(NotInterior):
        scaling_diagonals(np.array([0.0, 1.0]), p)
    with pytest.raises(NotInterior):
        scaling_diagonals(np.array([2.0, 1.0]), p)


def test_scaling_diagonals_clamped():
    p = GaugeParams(r=0.0, upper=np.array([np.inf]))
    # x^-2 = 1e40 clamps; x^-2 = 1e400 overflows to inf first, which must not warn
    for x in (1e-20, 1e-200):
        sd = scaling_diagonals(np.array([x]), p)
        assert sd.clamp_events == 1
        assert sd.h[0] == 1e32


def test_gradient_hand_value():
    p = params(0.5, NO_UB)
    grad = penalty_gradient(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1.0, p)
    assert_allclose(grad, [0.0, -1.0])


def test_hessian_hand_value():
    p = params(0.5, NO_UB)
    h = penalty_hessian_diag(np.array([1.0, 1.0]), 2.0, p)
    assert_allclose(h, [1.0, 1.0])


def _finite_difference_gradient(x, c, mu, p):
    grad = np.zeros_like(x)
    for j in range(len(x)):
        step = 1e-6 * (1.0 + abs(x[j]))
        ep = np.zeros_like(x)
        ep[j] = step
        grad[j] = (
            penalized_objective(x + ep, c, mu, p) - penalized_objective(x - ep, c, mu, p)
        ) / (2 * step)
    return grad


def test_gradient_matches_finite_differences(rng):
    n = 4
    for _ in range(100):
        r = rng.uniform(0.1, 0.9)
        upper = np.where(rng.random(n) < 0.5, rng.uniform(2.0, 4.0, n), np.inf)
        p = GaugeParams(r=r, upper=upper)
        x = rng.uniform(0.3, 1.5, n)
        x = np.minimum(x, 0.9 * upper)
        c = rng.normal(size=n)
        mu = rng.uniform(0.1, 2.0)
        grad = penalty_gradient(x, c, mu, p)
        fd = _finite_difference_gradient(x, c, mu, p)
        assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)


def test_hessian_matches_gradient_differences(rng):
    n = 3
    for _ in range(100):
        r = rng.uniform(0.1, 0.9)
        p = GaugeParams(r=r, upper=np.full(n, np.inf))
        x = rng.uniform(0.3, 1.5, n)
        c = rng.normal(size=n)
        mu = rng.uniform(0.1, 2.0)
        hd = penalty_hessian_diag(x, mu, p)
        for j in range(n):
            step = 1e-6 * (1.0 + abs(x[j]))
            ep = np.zeros(n)
            ep[j] = step
            fd = (
                penalty_gradient(x + ep, c, mu, p)[j] - penalty_gradient(x - ep, c, mu, p)[j]
            ) / (2 * step)
            assert hd[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_differential_barrier_gradient_blowup():
    # gradient norm grows without bound as one coordinate approaches 0
    p = params(0.5, NO_UB)
    norms = []
    for k in range(2, 13):
        x = np.array([10.0**-k, 1.0])
        norms.append(np.linalg.norm(penalty_gradient(x, np.zeros(2), 1.0, p), np.inf))
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 1e5


def test_r_continuity_of_diagonals(rng):
    n = 5
    upper = np.where(rng.random(n) < 0.5, rng.uniform(2.0, 4.0, n), np.inf)
    x = rng.uniform(0.3, 1.5, n)
    x = np.minimum(x, 0.9 * upper)
    small, zero = GaugeParams(r=1e-6, upper=upper), GaugeParams(r=0.0, upper=upper)
    assert_allclose(scaling_diagonals(x, small).h, scaling_diagonals(x, zero).h, rtol=1e-4)
    assert_allclose(g_diagonal(x, small), g_diagonal(x, zero), rtol=1e-4, atol=1e-4)
