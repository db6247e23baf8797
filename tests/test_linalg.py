import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from galp.linalg import (
    PAIR_BUDGET,
    REGULARIZATIONS,
    FactorizationFailed,
    NonFiniteInput,
    assemble_normal,
    factor,
    factor_normal,
    normal_plan,
    solve,
)

from conftest import NETLIB_PROBLEMS, sparse_product_normal
from families import NAMED, PANEL


def dense_triple_loop(A, dinv):
    m, n = A.shape
    M = np.zeros((m, m))
    for i in range(m):
        for k in range(m):
            for j in range(n):
                M[i, k] += A[i, j] * dinv[j] * A[k, j]
    return M


def kernel_test_matrices(rng):
    """Sparse matrices with empty rows and columns, single-entry columns, m = 1, and no entries at all."""
    yield sp.csc_matrix((3, 4))
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


def blockless_matrices(rng):
    """kernel_test_matrices, the corpus and seed 0 of sparse-large and
    box-heavy: every A whose pair table fits without a dense block."""
    yield from kernel_test_matrices(rng)
    for name in NETLIB_PROBLEMS:
        yield NAMED[name].lp().A
    for family in ("sparse_large", "box_heavy"):
        yield PANEL[family].members[0].lp().A


def dense_column_matrix(rng, m=60, n=40, density=0.05, dense=8):
    """A sparse m x n matrix whose first ``dense`` columns are full."""
    A = sp.random(m, n, density=density, format="lil", random_state=rng)
    A[:, :dense] = rng.uniform(-1, 1, size=(m, dense))
    return sp.csc_matrix(A)


def fsum_normal(A, dinv):
    """The upper triangle of A diag(dinv) A^t, each entry the correctly rounded
    sum (math.fsum) of its products (A[i, j] * dinv[j]) * A[k, j]."""
    D = A.toarray()
    m = D.shape[0]
    ref = np.zeros((m, m))
    for k in range(m):
        for i in range(k, m):
            ref[k, i] = math.fsum((D[i] * dinv) * D[k])
    return ref


class MatrixPlan:
    """A stand-in plan for A with no columns whose every assembly is a fresh
    copy of a given M; it counts its assemblies."""

    n = 0

    def __init__(self, M):
        self.M = np.array(M, dtype=float)
        self.assemblies = 0

    def assemble(self, dinv):
        self.assemblies += 1
        return self.M.copy()


def ladder(M):
    """factor_normal on a MatrixPlan of M; returns (factor, plan)."""
    plan = MatrixPlan(M)
    return factor_normal(plan, np.ones(0)), plan


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
    assert_allclose(np.triu(M), np.triu(dense_triple_loop(A, dinv)), rtol=1e-12, atol=1e-14)
    assert not np.tril(M, -1).any()


def test_assemble_writes_only_the_upper_triangle(rng):
    # each entry once, at (k, i) with i >= k: the sparse product's lower
    # triangle transposed, bit for bit, and a strict lower triangle of zeros
    A = sp.csc_matrix(rng.uniform(-1, 1, size=(6, 9)))
    dinv = rng.uniform(1e-8, 1e8, size=9)
    product = (A.multiply(dinv) @ A.T).toarray()
    M = assemble_normal(normal_plan(A), dinv)
    assert np.array_equal(np.triu(M), np.tril(product).T)
    assert np.array_equal(np.tril(M, -1), np.zeros((6, 6)))
    assert not np.signbit(np.tril(M, -1)).any()


def test_assemble_bit_identical_to_sparse_product(rng):
    # every A whose pairs fit has no block, and its M is the product's bit for bit
    for A in blockless_matrices(rng):
        plan = normal_plan(A)
        assert plan.block_cols.size == 0 and plan.block.shape == (A.shape[0], 0)
        for lo, hi in ((1.0, 1.0), (1e-3, 1e3), (1e-30, 1e30)):
            dinv = np.exp(rng.uniform(np.log(lo), np.log(hi), size=A.shape[1]))
            assert np.array_equal(assemble_normal(plan, dinv), sparse_product_normal(A, dinv))


def non_canonical_csc(rng, m=30, n=50, density=0.1):
    """A CSC matrix whose columns hold their entries in shuffled row order,
    with some entries split into two stored duplicates."""
    A = sp.random(m, n, density=density, format="coo", random_state=rng)
    split = rng.random(A.nnz) < 0.3
    part = rng.uniform(0.2, 0.8, size=split.sum())
    rows = np.concatenate((A.row, A.row[split]))
    cols = np.concatenate((A.col, A.col[split]))
    data = np.concatenate((A.data, A.data[split] * (1 - part)))
    data[np.flatnonzero(split)] *= part
    order = np.lexsort((rng.random(rows.size), cols))  # by column, rows shuffled
    indptr = np.searchsorted(cols[order], np.arange(n + 1))
    return sp.csc_matrix((data[order], rows[order], indptr), shape=(m, n))


def test_non_canonical_a_assembles_as_its_canonical_form(rng):
    # the plan canonicalizes a copy, so that within each column the row of
    # every pair's right entry is at most its left one's; the caller's A keeps
    # its duplicates and its order
    small = sp.csc_matrix(
        ([1.5, -2.0, 0.25, 4.0, 3.0, -1.0, 0.5, 2.0, 7.0], [3, 0, 3, 1, 4, 2, 2, 2, 0], [0, 4, 4, 6, 9]),
        shape=(5, 4),
    )
    for A in (small, non_canonical_csc(rng)):
        assert not A.has_canonical_format
        data, indices, indptr = A.data.copy(), A.indices.copy(), A.indptr.copy()
        canonical = A.copy()
        canonical.sum_duplicates()
        plan = normal_plan(A)
        for lo, hi in ((1.0, 1.0), (1e-3, 1e3)):
            dinv = np.exp(rng.uniform(np.log(lo), np.log(hi), size=A.shape[1]))
            assert np.array_equal(assemble_normal(plan, dinv), sparse_product_normal(canonical, dinv))
        assert np.array_equal(A.data, data) and np.array_equal(A.indices, indices) and np.array_equal(A.indptr, indptr)


def test_assemble_sums_each_entry_over_ascending_j():
    # M[0, 1] gets the products 1e16, 1 and -1e16, whose rounded sum depends
    # on their order; for each order of the three columns it must be the left
    # fold over ascending j, which reads 0.0 or 1.0
    A0 = np.array([[1e8, 1.0, 1e8], [1e8, 1.0, -1e8]])
    dinv = np.ones(3)
    seen = set()
    for perm in itertools.permutations(range(3)):
        A = A0[:, perm]
        fold = 0.0
        for j in range(3):
            fold += (A[1, j] * dinv[j]) * A[0, j]
        seen.add(fold)
        assert assemble_normal(normal_plan(sp.csc_matrix(A)), dinv)[0, 1] == fold, perm
    assert seen == {0.0, 1.0}


def test_dense_columns_assemble_within_a_rounding_bound(rng):
    # 8 full columns give 8 * 60 * 61 / 2 = 14640 pairs, above nnz + m^2 = 4120;
    # a fully dense 40 x 120 A has 120 * 40 * 41 / 2 = 98400
    matrices = (
        dense_column_matrix(rng),
        dense_column_matrix(rng, m=30, n=60, density=0.1),
        dense_column_matrix(rng, m=100, n=300, density=0.02, dense=3),
        sp.csc_matrix(rng.uniform(-1, 1, size=(40, 120))),
    )
    for A in matrices:
        m, n = A.shape
        plan = normal_plan(A)
        # the block is minimal: the table fits, and the best block of one
        # column fewer, which keeps the block's smallest column, would not
        counts = np.diff(A.indptr)
        pairs = counts * (counts + 1) // 2
        limit = max(PAIR_BUDGET, A.nnz + m * m)
        assert plan.pos.size == pairs.sum() - pairs[plan.block_cols].sum() <= limit
        assert plan.pos.size + pairs[plan.block_cols].min() > limit
        assert np.array_equal(plan.block, A[:, plan.block_cols].toarray())
        assert plan.block.flags.f_contiguous
        assert not np.isin(plan.col, plan.block_cols).any()
        for lo, hi in ((1.0, 1.0), (1e-30, 1e30)):
            dinv = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
            M = assemble_normal(plan, dinv)
            assert M.flags.c_contiguous
            assert np.array_equal(np.tril(M, -1), np.zeros((m, m)))
            # first order, a pair term carries 2 roundings and a block term 5
            # (sqrt(dinv), both scaled entries and their product); any order of
            # summing n terms adds n - 1, and the reference's own products and
            # rounding add 3, so |M - ref| <= (n + 7) u |A| diag(dinv) |A|^t
            scale = np.triu(abs(A).multiply(dinv) @ abs(A).T.toarray())
            assert (np.abs(M - fsum_normal(A, dinv)) <= (n + 7) * 2.0**-53 * scale).all()


def test_small_dense_a_gets_a_pair_plan(rng):
    # a dense m x n A has n*m*(m+1)/2 pairs, above nnz + m^2 for every m > 2,
    # but a table within PAIR_BUDGET pairs is small, so it keeps every column
    # and the sparse product's bits
    for m, n in ((3, 6), (10, 30)):
        assert n * m * (m + 1) // 2 <= PAIR_BUDGET
        A = sp.csc_matrix(rng.uniform(-1, 1, size=(m, n)))
        plan = normal_plan(A)
        assert plan.block_cols.size == 0, (m, n)
        dinv = rng.uniform(0.1, 2.0, size=n)
        assert np.array_equal(assemble_normal(plan, dinv), sparse_product_normal(A, dinv))


def test_pair_plan_holds_no_dense_matrix(rng):
    # the plan is its pair table and an m x 0 block; every assembly returns a
    # new C-ordered M for factor to consume
    for A in kernel_test_matrices(rng):
        plan = normal_plan(A)
        assert plan.block.shape == (A.shape[0], 0)
        assert all(np.ndim(value) <= 1 for name, value in vars(plan).items() if name != "block")
        dinv = np.ones(A.shape[1])
        first, second = assemble_normal(plan, dinv), assemble_normal(plan, dinv)
        assert not np.shares_memory(first, second)
        assert first.flags.c_contiguous and first.flags.writeable and first.dtype == np.float64


def test_assemble_rejects_nonfinite():
    plan = normal_plan(sp.csc_matrix(np.eye(2)))
    with pytest.raises(NonFiniteInput):
        assemble_normal(plan, np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteInput):
        assemble_normal(plan, np.array([1.0, -1.0]))


def test_assemble_rejects_dinv_of_the_wrong_shape(rng):
    # without the check the pair plan reads the first n entries of a longer dinv,
    # and fails with IndexError on a shorter one
    small = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    for A in (small, dense_column_matrix(rng)):
        plan = normal_plan(A)
        n = A.shape[1]
        for dinv in (np.ones(n + 2), np.ones(n - 1), np.ones(0), np.ones((n, 1)), np.ones((1, n)), 1.0):
            with pytest.raises(ValueError, match=rf"dinv needs shape \({n},\)"):
                assemble_normal(plan, dinv)
    assert np.array_equal(assemble_normal(normal_plan(small), [1.0, 1.0, 1.0]), [[5.0, 2.0], [0.0, 10.0]])


def test_assemble_rejects_overflowing_product(rng):
    # finite A and dinv whose products overflow: A[i, j]**2 is about 1e400,
    # in the pair table of the first A and only in the block of the second
    A = sp.random(8, 12, density=0.4, format="csc", random_state=rng)
    A.data = rng.uniform(0.5, 2.0, size=A.nnz) * 1e200
    dense = dense_column_matrix(rng)
    block_cols = normal_plan(dense).block_cols
    scale = np.ones(dense.shape[1])
    scale[block_cols] = 1e200
    dense = sp.csc_matrix(dense.multiply(scale))
    assert np.array_equal(normal_plan(dense).block_cols, block_cols)
    for A in (A, dense):
        plan = normal_plan(A)
        dinv = np.ones(A.shape[1])
        with pytest.raises(NonFiniteInput), np.errstate(over="ignore"):
            assemble_normal(plan, dinv)
        with pytest.raises(NonFiniteInput), np.errstate(over="ignore"):
            factor_normal(plan, dinv)


def test_ladder_rejects_an_overflowing_sum(rng):
    # every product is 1e308, finite, but two of them meet in M[0, 0] = inf,
    # in the pair table of the first A and in the block of the second: the
    # assembly passes, every rung fails, and the ladder ends NonFiniteInput
    small = sp.csc_matrix(np.array([[1e154, 1e154, 0.0], [0.0, 1.0, 1.0]]))
    dense = dense_column_matrix(rng)
    block_cols = normal_plan(dense).block_cols
    dense = dense.tolil()
    dense[0, block_cols] = 1e154
    dense = sp.csc_matrix(dense)
    assert np.array_equal(normal_plan(dense).block_cols, block_cols) and block_cols.size >= 2
    for A in (small, dense):
        plan = normal_plan(A)
        dinv = np.ones(A.shape[1])
        assert np.isinf(assemble_normal(plan, dinv)[0, 0])
        with pytest.raises(NonFiniteInput):
            factor_normal(plan, dinv)


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
    # one attempt fails on a non-finite entry of the triangle it reads; only
    # the ladder, which assembles again, tells NonFiniteInput from a
    # rank-deficient matrix
    B = rng.uniform(-1, 1, size=(70, 73))
    M = np.triu(B @ B.T)
    for pos in ((0, 0), (69, 69), (35, 35), (3, 50), (68, 69)):
        bad = M.copy()
        bad[pos] = value
        with pytest.raises(FactorizationFailed):
            factor(bad.copy())
        with pytest.raises(NonFiniteInput):
            ladder(bad)


def test_factor_scalar():
    F = factor(np.array([[2.0]]))
    assert F.rho == 0.0
    assert_allclose(F.L, [[np.sqrt(2.0)]])


def test_factor_diagonal():
    F = factor(np.diag([3.0, 5.0]))
    assert_allclose(F.L, np.diag([np.sqrt(3.0), np.sqrt(5.0)]))


def test_factor_singular_regularizes():
    # A = [[1], [1]]: M = [[1, 1], [1, 1]] is singular, so rho = 0 fails and a later rung holds
    plan = normal_plan(sp.csc_matrix(np.array([[1.0], [1.0]])))
    with pytest.raises(FactorizationFailed):
        factor(assemble_normal(plan, np.ones(1)))
    F = factor_normal(plan, np.ones(1))
    assert F.rho > 0.0
    regularized = np.ones((2, 2)) + F.rho * np.eye(2)
    L = np.tril(F.L)
    assert_allclose(L @ L.T, regularized, rtol=1e-8)


def test_factor_bit_identical_to_shifted_cholesky(rng):
    for m in (2, 5, 60, 300):
        B = rng.uniform(-1, 1, size=(m, m + 3))
        M = B @ B.T
        F = factor(M.copy())  # factor consumes its argument; the oracles below read M
        assert F.rho == 0.0
        assert np.array_equal(np.tril(F.L), scipy.linalg.cholesky(M, lower=True))
        # dpotrf(clean=0) leaves M's strict lower triangle in place, as the strict upper one of F.L
        assert np.array_equal(np.triu(F.L, 1), np.triu(M, 1))
        # slightly indefinite: rho = 0 fails, and each rung that succeeds is
        # the Cholesky factor of the shifted M
        M -= (np.linalg.eigvalsh(M)[0] + 1e-9 * np.trace(M) / m) * np.eye(m)
        with pytest.raises(FactorizationFailed):
            factor(M.copy())
        held = 0
        for rho in REGULARIZATIONS[1:]:
            try:
                F = factor(M.copy(), rho)
            except FactorizationFailed:
                continue
            held += 1
            assert F.rho == rho
            assert np.array_equal(np.tril(F.L), scipy.linalg.cholesky(M + rho * np.diag(np.diag(M)), lower=True))
            assert np.array_equal(np.triu(F.L, 1), np.triu(M, 1))
        assert held > 0, m


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


def test_ladder_factors_a_fresh_assembly_per_rung(rng):
    # a failed rung overwrites the triangle it read; the next rung factors a
    # new assembly, so the ladder's factor of a slightly indefinite M is the
    # oracle's factor of the shifted original, after one assembly per rung
    for m in (3, 40, 200):
        B = rng.uniform(-1, 1, size=(m, m + 3))
        M = B @ B.T
        M -= (np.linalg.eigvalsh(M)[0] + 1e-9 * np.trace(M) / m) * np.eye(m)
        F, plan = ladder(np.triu(M))
        assert F.rho > 0.0
        assert plan.assemblies == REGULARIZATIONS.index(F.rho) + 1
        shifted = M + F.rho * np.diag(np.diag(M))
        assert np.array_equal(np.tril(F.L), scipy.linalg.cholesky(shifted, lower=True))
        assert not np.triu(F.L, 1).any()  # the assembly's strict lower triangle is zero
    # the last pivot fails at every rung, after the others were written; one
    # more assembly then tells the error
    M = np.triu([[4.0, 2.0, 2.0], [2.0, 4.0, 2.0], [2.0, 2.0, -10.0]])
    for bad, error in ((None, FactorizationFailed), ((1, 2), NonFiniteInput), ((2, 2), NonFiniteInput)):
        C = M.copy()
        if bad is not None:
            C[bad] = np.nan
        plan = MatrixPlan(C)
        with pytest.raises(error):
            factor_normal(plan, np.ones(0))
        assert plan.assemblies == len(REGULARIZATIONS) + 1


def test_factor_hopeless_matrix_fails():
    with pytest.raises(FactorizationFailed):
        factor(np.zeros((2, 2)))
    with pytest.raises(FactorizationFailed):
        ladder(np.zeros((2, 2)))


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
