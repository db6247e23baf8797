"""Normal-equations kernel: assemble A diag(dinv) A^t and solve by Cholesky.

Assembly runs from a plan of A built once per LP (``normal_plan``), so
each ``assemble_normal`` does numeric work only.  The plan is a
``PairPlan``: for every column j of its sparse part it lists each pair of
stored entries (i, j), (k, j) with i >= k, with the flat position k*m + i
of the entry they feed in M's upper triangle, in A's column order.
Assembly is one product (A[i,j]*dinv[j])*A[k,j] per pair and one
``np.bincount`` that sums the pairs of each position straight into a new
m x m array; ``bincount`` adds in input order, so each entry is summed
over ascending j.  Only the upper triangle is written, because it is all
that ``factor`` reads; the strict lower triangle is ``bincount``'s zeros.

The pair table costs memory per pair, and a column with c entries has
c(c+1)/2 pairs, so dense columns blow it up: a fully dense 200 x 600 A has
12M pairs.  Such columns go to a dense block instead (Lustig, Marsten &
Shanno, Linear Algebra Appl. 152, 1991): columns move to the m x k block
most pairs first, and only until the pairs left fit within
max(PAIR_BUDGET, nnz(A) + m^2).  Within that bound the table keeps 32
bytes per pair, within a small factor of A and of the dense M that every
assembly fills anyway; within the budget (64 KB) it is small whatever A's
shape.  Each assembly adds the block, scaled by sqrt(dinv), into the same
triangle with one BLAS ``dsyrk``.  M is dense here, so the split changes
only the assembly.

The summation order is fixed on purpose.  The pair table sums every entry
over ascending j with the product association of scipy's
``A.multiply(dinv) @ A.T``, and writes the sum of entry (i, k) at (k, i),
so for an A whose pairs fit the bound, which has no block (every corpus
and generated LP), the upper triangle is the product's lower one,
transposed, bit for bit, and the iterates, and with them the iteration
table, stay byte-identical.  ``tests/test_linalg.py`` keeps that product
as its oracle and compares with ``np.array_equal``, so a scipy release
that changes the order of its sparse product is flagged there.  An A with
a block sums in BLAS's order and rounds sqrt(dinv), so its M is that
product only to within a stated rounding bound, also tested there.

Every assembly returns a fresh C-ordered m x m array.  The plan checks
that the pair products, and the products of the scaled block, are finite;
a sum of finite products can still overflow, and that is caught where the
factor fails (below).  The plan is its pair table and its block, so
``StandardLP.plan`` keeps one per LP, built on the LP's first solve.

``factor(M, rho)`` makes one attempt on M + rho*diag(M) and consumes M: it
factors the Fortran-ordered view M^t in place with LAPACK
``dpotrf(clean=0)``, so no m x m copy is made.  The lower triangle of M^t
becomes the factor, and its strict upper triangle is M's strict lower one,
zero for an assembled M.  A read-only or non-contiguous M is copied first
and left as it was.  ``solve`` hands the factor straight to ``dpotrs``,
which reads only the lower triangle, for one right-hand side or for several
columns at once; an m x 2 solve gives each column bit for bit as its own
one-column solve.  The lower triangle is ``scipy.linalg.cholesky(M,
lower=True)`` bit for bit.  ``factor_normal`` is the regularization ladder:
it escalates the relative diagonal regularization rho in {0, 1e-12, 1e-10,
1e-8, 1e-6} until every pivot is finite and its square stays above 1e-30,
and each rung factors a fresh assembly, so a failed rung, which has
overwritten its M, needs nothing restored.  The rho actually applied is
recorded on the factor so the solver trace can surface it.  M and L are
dense: the solver targets desk-scale problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

REGULARIZATIONS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)
_MIN_PIVOT = 1e-30
PAIR_BUDGET = 2048  # pairs (64 KB of table) that never need a dense block


class NonFiniteInput(Exception):
    pass


class FactorizationFailed(Exception):
    pass


@dataclass
class CholeskyFactor:
    """Fortran-ordered Cholesky factor with M + rho*diag(M) ~ L L^t.

    Only the lower triangle of ``L``, diagonal included, is the factor; its
    strict upper triangle still holds M's strict lower triangle (``dpotrf``
    with ``clean=0``), zero for an assembled M but not for every M given to
    ``factor``, so a reader of the factor takes ``np.tril(L)``.
    """

    L: np.ndarray
    rho: float


@dataclass
class PairPlan:
    """Pair table and dense block of A diag(dinv) A^t for one constraint matrix A.

    Pair p contributes (left[p] * dinv[col[p]]) * right[p] to the entry of
    M's upper triangle at flat position ``pos[p]`` = k*m + i (i >= k) of the
    m x m array.  Pairs are in A's column order, each column's pairs one
    run, so ``bincount`` sums each entry over ascending j.  The columns
    ``block_cols`` of A have no pairs: they are the m x k ``block``, empty
    for most A.  The plan holds no m x m array: each assembly returns a new
    one.
    """

    m: int
    n: int  # columns of A: the length of dinv
    left: np.ndarray  # A[i, j] of each pair
    right: np.ndarray  # A[k, j] of each pair
    col: np.ndarray  # j of each pair
    pos: np.ndarray  # flat upper-triangle position k*m + i of each pair
    block_cols: np.ndarray  # ascending columns of A held densely
    block: np.ndarray  # A[:, block_cols], Fortran-ordered

    def assemble(self, dinv: np.ndarray) -> np.ndarray:
        w = (self.left * dinv[self.col]) * self.right
        if not np.logical_and.reduce(np.isfinite(w)):
            raise NonFiniteInput("normal matrix has non-finite entries")
        # bincount of no pairs returns integer zeros, hence the astype (a no-op otherwise)
        M = np.bincount(self.pos, w, minlength=self.m * self.m).astype(float, copy=False)
        M = M.reshape(self.m, self.m)
        if self.block_cols.size:
            B = self.block * np.sqrt(dinv[self.block_cols])
            # every product of two entries of B is at most the larger square of
            # its extremes, and min and max propagate NaN
            lo = float(np.minimum.reduce(B, axis=None))
            hi = float(np.maximum.reduce(B, axis=None))
            if not (lo * lo < np.inf and hi * hi < np.inf):
                raise NonFiniteInput("normal matrix has non-finite entries")
            # the lower triangle of the Fortran-ordered M^t is M's upper one
            dsyrk(1.0, B, beta=1.0, c=M.T, lower=1, overwrite_c=1)
        return M


def normal_plan(A) -> PairPlan:
    """Plan for assembling A diag(dinv) A^t repeatedly with the same A.

    The block takes the fewest columns, those with the most pairs first
    (ties in column order), that leave at most max(PAIR_BUDGET,
    nnz(A) + m^2) pairs in the table; the count is taken before anything per
    pair is allocated.
    """
    A = sp.csc_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    m, n = A.shape
    col_pairs = np.diff(A.indptr).astype(np.int64)
    col_pairs = col_pairs * (col_pairs + 1) // 2
    by_pairs = np.argsort(-col_pairs, kind="stable")
    moved = np.concatenate(([0], np.cumsum(col_pairs[by_pairs])))
    k = int(np.count_nonzero(moved[-1] - moved > max(PAIR_BUDGET, A.nnz + m * m)))
    block_cols = np.sort(by_pairs[:k])
    rest = np.sort(by_pairs[k:])
    S = A[:, rest]
    counts = np.diff(S.indptr)
    start = np.repeat(S.indptr[:-1], counts)  # first stored entry of each entry's column
    # entry e pairs with itself and every entry above it in its column
    npairs = np.arange(S.nnz) - start + 1
    first_pair = np.cumsum(npairs) - npairs
    e_left = np.repeat(np.arange(S.nnz), npairs)
    e_right = np.arange(e_left.size) - np.repeat(first_pair - start, npairs)
    return PairPlan(
        m=m, n=n, left=S.data[e_left], right=S.data[e_right], col=np.repeat(rest, col_pairs[rest]),
        pos=S.indices[e_right].astype(np.int64) * m + S.indices[e_left],
        block_cols=block_cols, block=A[:, block_cols].toarray(order="F"),
    )


def assemble_normal(plan: PairPlan, dinv: np.ndarray) -> np.ndarray:
    """The upper triangle of M = A diag(dinv) A^t, as a new C-ordered m x m array.

    ``plan`` is ``normal_plan(A)``, and ``dinv`` must have shape (n,) for the
    n columns of A, else ``ValueError``.  Entry (k, i), i >= k, holds
    M[i, k] = sum_j (A[i, j] * dinv[j]) * A[k, j], summed over ascending j
    when the plan has no block; the strict lower triangle is zero.  That
    triangle is the lower triangle of M^t, all that ``factor`` reads, and
    ``factor`` may consume the array.
    """
    dinv = np.asarray(dinv, dtype=float)
    if dinv.shape != (plan.n,):
        raise ValueError(f"dinv needs shape ({plan.n},), got {dinv.shape}")
    # min and max propagate NaN, so this fails on NaN, on either infinity and
    # on a negative entry, as the isfinite and sign tests did, in two reductions
    if not (np.minimum.reduce(dinv, initial=0.0) >= 0.0 and np.maximum.reduce(dinv, initial=0.0) < np.inf):
        raise NonFiniteInput("dinv must be finite and nonnegative")
    return plan.assemble(dinv)


def factor(M: np.ndarray, rho: float = 0.0) -> CholeskyFactor:
    """One Cholesky attempt on M + rho*diag(M), in place; FactorizationFailed if it fails.

    Only the upper triangle of M is read, as the lower triangle of M^t.  M
    is consumed: when M^t is Fortran-contiguous and writeable (a C-ordered M
    from ``assemble_normal``), ``dpotrf`` overwrites it and the factor's
    ``L`` shares M's memory.  Any other M is copied first and left as it
    was.  The attempt fails unless every pivot is finite and its square
    exceeds 1e-30; ``factor_normal`` climbs the rungs of rho.
    """
    A = np.asarray(M, dtype=float).T
    if not (A.flags.f_contiguous and A.flags.writeable):
        A = A.copy(order="F")
    if rho != 0.0:
        # the same sums as M + rho*np.diag(np.diag(M)), without an m x m diagonal
        diag = A.diagonal()
        np.fill_diagonal(A, diag + rho * diag)
    L, info = dpotrf(A, lower=1, overwrite_a=1, clean=0)
    if info == 0:
        # info == 0 leaves no pivot <= 0, though OpenBLAS lets NaN through;
        # min() propagates NaN, so lo*lo > 1e-30 holds exactly when every
        # pivot's square does, and max() < inf rules out a +inf pivot
        pivots = L.diagonal()
        lo = float(np.minimum.reduce(pivots, initial=np.inf))
        if lo * lo > _MIN_PIVOT and np.maximum.reduce(pivots, initial=0.0) < np.inf:
            return CholeskyFactor(L=L, rho=rho)
    raise FactorizationFailed(f"normal matrix is not numerically positive definite at rho = {rho:g}")


def factor_normal(plan: PairPlan, dinv: np.ndarray) -> CholeskyFactor:
    """Factor A diag(dinv) A^t, climbing the regularization rungs until one succeeds.

    Each rung factors a fresh ``assemble_normal(plan, dinv)``, so a failed
    rung leaves nothing to restore.  When every rung fails, one more
    assembly tells a non-finite matrix (NonFiniteInput) from a numerically
    rank-deficient one (FactorizationFailed).  Both are looked up as
    globals of this module, where the benchmark's tracer wraps them
    (``perfbench/tracing.BINDINGS``, which ROADMAP item 3 retires).
    """
    for rho in REGULARIZATIONS:
        try:
            return factor(assemble_normal(plan, dinv), rho)
        except FactorizationFailed:
            pass
    if not np.logical_and.reduce(np.isfinite(assemble_normal(plan, dinv)), axis=None):
        raise NonFiniteInput("normal matrix has non-finite entries")
    raise FactorizationFailed(
        "normal matrix is numerically rank deficient at every regularization level"
    )


def solve(F: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Forward/back substitution with the stored lower factor, which LAPACK reads in place.

    ``rhs`` is one vector of length m or an m x k array whose columns are
    solved together; the result has the shape of ``rhs``.
    """
    z, _ = dpotrs(F.L, rhs, lower=1)
    return z
