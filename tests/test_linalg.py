import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from galp.linalg import (
    FactorizationFailed,
    NonFiniteInput,
    PairPlan,
    ProductPlan,
    assemble_normal,
    factor,
    normal_plan,
    solve,
)

from conftest import sparse_product_normal


def dense_triple_loop(A, dinv):
    m, n = A.shape
    M = np.zeros((m, m))
    for i in range(m):
        for k in range(m):
            for j in range(n):
                M[i, k] += A[i, j] * dinv[j] * A[k, j]
    return M


def kernel_test_matrices(rng):
    """Sparse matrices with empty rows and columns, single-entry columns, and m = 1."""
    yield sp.csc_matrix(np.array([[0.0, 2.5, -1.0, 0.0]]))
    yield sp.csc_matrix(rng.uniform(-1, 1, size=(1, 7)))
    yield sp.csc_matrix(np.diag([1.0, -3.0, 0.5]))
    for m, n, density in ((5, 9, 0.3), (12, 30, 0.1), (40, 25, 0.05), (60, 180, 0.04), (150, 400, 0.02)):
        A = sp.random(m, n, density=density, format="lil", random_state=rng)
        A[m // 2, :] = 0.0  # an empty row
        A[:, n // 3] = 0.0  # an empty column
        A[:, n // 2] = 0.0
        A[m - 1, n // 2] = 1.7  # a single-entry column
        A = sp.csc_matrix(A)
        A.data = rng.uniform(-3, 3, size=A.nnz)
        yield A


def gaussian_elimination(M, rhs):
    """Partial-pivot Gaussian elimination, independent of the Cholesky path."""
    M = M.astype(float).copy()
    rhs = rhs.astype(float).copy()
    n = len(rhs)
    for k in range(n):
        p = k + np.argmax(np.abs(M[k:, k]))
        M[[k, p]] = M[[p, k]]
        rhs[[k, p]] = rhs[[p, k]]
        for i in range(k + 1, n):
            f = M[i, k] / M[k, k]
            M[i, k:] -= f * M[k, k:]
            rhs[i] -= f * rhs[k]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (rhs[i] - M[i, i + 1 :] @ x[i + 1 :]) / M[i, i]
    return x


def test_assemble_row_vector():
    A = sp.csc_matrix(np.array([[1.0, 1.0]]))
    assert_allclose(assemble_normal(normal_plan(A), np.array([1.0, 1.0])), [[2.0]])


def test_assemble_identity():
    A = sp.csc_matrix(np.eye(2))
    assert_allclose(assemble_normal(normal_plan(A), np.array([3.0, 5.0])), np.diag([3.0, 5.0]))


def test_assemble_matches_triple_loop(rng):
    A = rng.uniform(-1, 1, size=(3, 5))
    dinv = rng.uniform(0.1, 2.0, size=5)
    M = assemble_normal(normal_plan(sp.csc_matrix(A)), dinv)
    assert_allclose(M, dense_triple_loop(A, dinv), rtol=1e-12, atol=1e-14)


def test_assemble_exactly_symmetric(rng):
    A = sp.csc_matrix(rng.uniform(-1, 1, size=(6, 9)))
    M = assemble_normal(normal_plan(A), rng.uniform(1e-8, 1e8, size=9))
    assert np.array_equal(M, M.T)  # bit-identical


def test_assemble_bit_identical_to_sparse_product(rng):
    for A in kernel_test_matrices(rng):
        assert isinstance(normal_plan(A), PairPlan)
        plans = (PairPlan.build(A), ProductPlan(A))
        for lo, hi in ((1.0, 1.0), (1e-3, 1e3), (1e-30, 1e30)):
            dinv = np.exp(rng.uniform(np.log(lo), np.log(hi), size=A.shape[1]))
            expected = sparse_product_normal(A, dinv)
            for plan in plans:
                assert np.array_equal(assemble_normal(plan, dinv), expected)


def test_dense_columns_assemble_by_sparse_product(rng):
    # 8 full columns give 8 * 60 * 61 / 2 = 14640 pairs, above nnz + m^2 = 4120
    A = sp.random(60, 40, density=0.05, format="lil", random_state=rng)
    A[:, :8] = rng.uniform(-1, 1, size=(60, 8))
    A = sp.csc_matrix(A)
    plan = normal_plan(A)
    assert isinstance(plan, ProductPlan)
    dinv = np.exp(rng.uniform(np.log(1e-30), np.log(1e30), size=40))
    M = assemble_normal(plan, dinv)
    assert np.array_equal(M, sparse_product_normal(A, dinv))
    assert np.array_equal(M, assemble_normal(PairPlan.build(A), dinv))


def test_pair_plan_holds_no_dense_matrix(rng):
    # the plan is its pair table; every assembly returns a new C-ordered M for factor to consume
    for A in kernel_test_matrices(rng):
        plan = normal_plan(A)
        assert isinstance(plan, PairPlan)
        assert all(np.ndim(value) <= 1 for value in vars(plan).values())
        dinv = np.ones(A.shape[1])
        first, second = assemble_normal(plan, dinv), assemble_normal(plan, dinv)
        assert not np.shares_memory(first, second)
        assert first.flags.c_contiguous and first.flags.writeable


def test_product_plan_transpose_is_a_view_of_a(rng):
    A = sp.csc_matrix(rng.uniform(-1, 1, size=(6, 9)))
    plan = ProductPlan(A)
    assert (plan.At != A.T).nnz == 0
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(plan.At, name), getattr(A, name)), name


def test_assemble_rejects_nonfinite():
    plan = normal_plan(sp.csc_matrix(np.eye(2)))
    with pytest.raises(NonFiniteInput):
        assemble_normal(plan, np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteInput):
        assemble_normal(plan, np.array([1.0, -1.0]))


def test_assemble_rejects_dinv_of_the_wrong_shape():
    # without the check the pair plan reads the first 3 entries of a longer dinv,
    # and fails with IndexError on a shorter one
    A = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    for plan in (PairPlan.build(A), ProductPlan(A)):
        for dinv in (np.ones(5), np.ones(2), np.ones(0), np.ones((3, 1)), np.ones((1, 3)), 1.0):
            with pytest.raises(ValueError, match=r"dinv needs shape \(3,\)"):
                assemble_normal(plan, dinv)
        assert np.array_equal(assemble_normal(plan, [1.0, 1.0, 1.0]), [[5.0, 2.0], [2.0, 10.0]])


def test_assemble_rejects_overflowing_product(rng):
    # finite A and dinv whose products overflow: A[i, j]**2 is about 1e400
    A = sp.random(8, 12, density=0.4, format="csc", random_state=rng)
    A.data = rng.uniform(0.5, 2.0, size=A.nnz) * 1e200
    dinv = np.ones(12)
    for plan in (PairPlan.build(A), ProductPlan(A)):
        with pytest.raises(NonFiniteInput), np.errstate(over="ignore"):
            assemble_normal(plan, dinv)


def test_plan_reassembly_bit_identical_to_fresh_plan(rng):
    for A in kernel_test_matrices(rng):
        plan = normal_plan(A)
        for lo, hi in ((1e-3, 1e3), (1e-30, 1e30), (1.0, 1.0)):
            dinv = np.exp(rng.uniform(np.log(lo), np.log(hi), size=A.shape[1]))
            assert np.array_equal(assemble_normal(plan, dinv), assemble_normal(normal_plan(A), dinv))


def test_factor_survives_later_assemblies_on_its_plan(rng):
    A = sp.random(40, 90, density=0.1, format="csc", random_state=rng)
    A.data = rng.uniform(-1, 1, size=A.nnz)
    A = sp.csc_matrix(sp.hstack([A, sp.eye(40)]))  # full row rank
    plan = normal_plan(A)
    first = factor(assemble_normal(plan, rng.uniform(0.1, 10.0, size=A.shape[1])))
    kept = first.L.copy()
    rhs = rng.normal(size=40)
    z = solve(first, rhs)
    for _ in range(3):
        factor(assemble_normal(plan, rng.uniform(0.1, 10.0, size=A.shape[1])))
    assert np.array_equal(first.L, kept)
    assert np.array_equal(solve(first, rhs), z)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_factor_rejects_nonfinite(rng, value):
    B = rng.uniform(-1, 1, size=(70, 73))
    M = B @ B.T
    for pos in ((0, 0), (69, 69), (35, 35), (50, 3), (69, 68)):
        bad = M.copy()
        bad[pos] = bad[pos[::-1]] = value
        with pytest.raises(NonFiniteInput):
            factor(bad)


def test_factor_scalar():
    F = factor(np.array([[2.0]]))
    assert F.rho == 0.0
    assert_allclose(F.L, [[np.sqrt(2.0)]])


def test_factor_diagonal():
    F = factor(np.diag([3.0, 5.0]))
    assert_allclose(F.L, np.diag([np.sqrt(3.0), np.sqrt(5.0)]))


def test_factor_singular_regularizes():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    F = factor(M.copy())  # factor consumes its argument; the oracle below reads M
    assert F.rho > 0.0
    regularized = M + F.rho * np.diag(np.diag(M))
    L = np.tril(F.L)
    assert_allclose(L @ L.T, regularized, rtol=1e-8)


def test_factor_bit_identical_to_shifted_cholesky(rng):
    for m in (2, 5, 60, 300):
        B = rng.uniform(-1, 1, size=(m, m + 3))
        M = B @ B.T
        F = factor(M.copy())  # factor consumes its argument; the oracles below read M
        assert F.rho == 0.0
        assert np.array_equal(np.tril(F.L), scipy.linalg.cholesky(M, lower=True))
        # dpotrf(clean=0) leaves M's strict upper triangle in place, regularized or not
        assert np.array_equal(np.triu(F.L, 1), np.triu(M, 1))
        # slightly indefinite: only a regularized factorization succeeds
        M -= (np.linalg.eigvalsh(M)[0] + 1e-9 * np.trace(M) / m) * np.eye(m)
        F = factor(M.copy())
        assert F.rho > 0.0
        assert np.array_equal(np.tril(F.L), scipy.linalg.cholesky(M + F.rho * np.diag(np.diag(M)), lower=True))
        assert np.array_equal(np.triu(F.L, 1), np.triu(M, 1))


def test_factor_consumes_its_input(rng):
    for m in (2, 5, 60):  # at m = 1 every layout is contiguous
        B = rng.uniform(-1, 1, size=(m, m + 3))
        M = B @ B.T
        # a C-ordered, writeable M is factored in place: F.L is M's memory, as M^t
        F = factor(M.copy())
        C = M.copy()
        G = factor(C)
        assert np.shares_memory(G.L, C)
        assert np.array_equal(G.L, F.L) and G.rho == F.rho
        # a read-only or non-contiguous M is copied first and left as it was,
        # and gives the same bits
        ro = M.copy()
        ro.flags.writeable = False
        wide = np.zeros((m, 2 * m))
        wide[:, ::2] = M
        strided = wide[:, ::2]
        fortran = np.asfortranarray(M)
        for other in (ro, strided, fortran):
            before = other.copy()
            H = factor(other)
            assert not np.shares_memory(H.L, other)
            assert np.array_equal(other, before)
            assert np.array_equal(H.L, F.L) and H.rho == F.rho


def test_factor_restores_its_input_between_rungs(rng):
    # a failed rung overwrites the lower triangle of M^t (M's upper one); the
    # next rung must see M again, so the in-place factor of a slightly
    # indefinite M is the oracle's factor of the shifted original
    for m in (3, 40, 200):
        B = rng.uniform(-1, 1, size=(m, m + 3))
        M = B @ B.T
        M -= (np.linalg.eigvalsh(M)[0] + 1e-9 * np.trace(M) / m) * np.eye(m)
        F = factor(M.copy())
        assert F.rho > 0.0
        shifted = M + F.rho * np.diag(np.diag(M))
        assert np.array_equal(np.tril(F.L), scipy.linalg.cholesky(shifted, lower=True))
        assert np.array_equal(np.triu(F.L, 1), np.triu(M, 1))
    # the last pivot fails at every rung, after the others were written; the
    # error is then told from the restored matrix, which is M bit for bit
    M = np.array([[4.0, 2.0, 2.0], [2.0, 4.0, 2.0], [2.0, 2.0, -10.0]])
    for bad, error in ((None, FactorizationFailed), ((2, 1), NonFiniteInput), ((2, 2), NonFiniteInput)):
        C = M.copy()
        if bad is not None:
            C[bad] = C[bad[::-1]] = np.nan
        before = C.copy()
        with pytest.raises(error):
            factor(C)
        assert np.array_equal(C, before, equal_nan=True)


def test_factor_hopeless_matrix_fails():
    with pytest.raises(FactorizationFailed):
        factor(np.zeros((2, 2)))


def test_solve_scalar():
    F = factor(np.array([[2.0]]))
    assert_allclose(solve(F, np.array([4.0])), [2.0])


def test_solve_identity(rng):
    F = factor(np.eye(4))
    rhs = rng.normal(size=4)
    assert_allclose(solve(F, rhs), rhs)


def test_solve_bit_identical_to_lower_cho_solve(rng):
    for m in (1, 5, 60, 300):
        B = rng.uniform(-1, 1, size=(m, m))
        F = factor(B @ B.T + 0.1 * np.eye(m))
        for _ in range(3):
            rhs = rng.normal(size=m) * 10.0 ** rng.uniform(-8, 8)
            expected = scipy.linalg.cho_solve((F.L, True), rhs, check_finite=False)
            assert np.array_equal(solve(F, rhs), expected)


def test_solve_never_reads_upper_triangle(rng):
    for m in (1, 5, 60, 300):
        B = rng.uniform(-1, 1, size=(m, m))
        F = factor(B @ B.T + 0.1 * np.eye(m))
        one = rng.normal(size=m)
        two = np.stack((rng.normal(size=m), one), axis=1)
        z1, z2 = solve(F, one), solve(F, two)
        # a two-column solve gives each column as its own one-column solve
        assert z2.shape == (m, 2)
        assert np.array_equal(z2[:, 1], z1)
        assert np.array_equal(z2[:, 0], solve(F, two[:, 0].copy()))
        F.L[np.triu_indices(m, 1)] = np.nan
        assert np.array_equal(solve(F, one), z1)
        assert np.array_equal(solve(F, two), z2)


def test_solve_matches_gaussian_oracle(rng):
    for _ in range(20):
        B = rng.uniform(-1, 1, size=(5, 5))
        M = B @ B.T + 0.5 * np.eye(5)
        rhs = rng.normal(size=5)
        z = solve(factor(M.copy()), rhs)  # factor consumes its argument; the oracle reads M
        assert_allclose(z, gaussian_elimination(M, rhs), rtol=1e-8, atol=1e-10)


def test_residual_bound(rng):
    for _ in range(50):
        B = rng.uniform(-1, 1, size=(4, 4))
        M = B @ B.T + np.eye(4)
        rhs = rng.normal(size=4)
        F = factor(M.copy())  # factor consumes its argument; the residual reads M
        assert F.rho == 0.0
        resid = np.linalg.norm(M @ solve(F, rhs) - rhs, np.inf)
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(rhs, np.inf))
