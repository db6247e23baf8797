"""Normal-equations kernel: assemble A diag(dinv) A^t and solve by Cholesky.

Assembly runs from a plan of A built once per LP (``normal_plan``), so
each ``assemble_normal`` does numeric work only.  The usual plan is a
``PairPlan``: for every column j it lists each pair of stored entries
(i, j), (k, j) with i >= k, with the flat position k*m + i of the entry
they feed in M's upper triangle, sorted by that position and then by j.
Assembly is one product (A[i,j]*dinv[j])*A[k,j] per pair and one
``np.bincount`` that sums the pairs of each position straight into a new
m x m array.  Only the upper triangle is written, because it is all that
``factor`` reads; the strict lower triangle is ``bincount``'s zeros.

The pair table costs memory per pair, and a column with c entries has
c(c+1)/2 pairs, so dense columns blow it up: a fully dense 200 x 600 A has
12M pairs.  When the pairs outnumber both PAIR_BUDGET and nnz(A) + m^2, the
plan is a ``ProductPlan`` that forms scipy's sparse product each time
instead, whose memory stays of order nnz(A) + m^2.  Below that bound the
table keeps 32 bytes per pair, within a small factor of A and of the dense
M that every assembly fills anyway; below the budget (64 KB) it is small
whatever A's shape, so a small dense A is not sent through scipy's Python
dispatch.

The summation order is fixed on purpose.  The pair plan sums every entry
over ascending j with the product association of scipy's
``A.multiply(dinv) @ A.T``, and writes the sum of entry (i, k) at (k, i),
so both plans give the upper triangle bit for bit as the product's lower
one, transposed, and the iterates, and with them the iteration table, stay
byte-identical.  ``tests/test_linalg.py`` keeps that product as its oracle
and compares with ``np.array_equal``, so a scipy release that changes the
order of its sparse product is flagged there.

Every assembly returns a fresh C-ordered m x m array.  The pair plan checks
that its nnz-sized products are finite; a sum of finite products can still
overflow, and that is caught where the factor fails (below).  The plan is
only its pair table, so ``StandardLP.plan`` keeps one per LP, built on the
LP's first solve.

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

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

REGULARIZATIONS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)
_MIN_PIVOT = 1e-30
PAIR_BUDGET = 2048  # pairs (64 KB of table) that always get a PairPlan


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
    """Pair table of A diag(dinv) A^t for one constraint matrix A.

    Pair p contributes (left[p] * dinv[col[p]]) * right[p] to the entry of
    M's upper triangle at flat position ``pos[p]`` = k*m + i (i >= k) of the
    m x m array.  Pairs are ordered by position and then by column, so each
    entry sums over ascending j.  The plan holds no m x m array: each
    assembly returns a new one.
    """

    m: int
    n: int  # columns of A: the length of dinv
    left: np.ndarray  # A[i, j] of each pair
    right: np.ndarray  # A[k, j] of each pair
    col: np.ndarray  # j of each pair
    pos: np.ndarray  # flat upper-triangle position k*m + i of each pair

    @classmethod
    def build(cls, A) -> "PairPlan":
        """Pair table of a sparse m x n matrix A."""
        A = _canonical_csc(A)
        m, n = A.shape
        counts = np.diff(A.indptr)
        start = np.repeat(A.indptr[:-1], counts)  # first stored entry of each entry's column
        # entry e pairs with itself and every entry above it in its column
        npairs = np.arange(A.nnz) - start + 1
        first_pair = np.cumsum(npairs) - npairs
        e_left = np.repeat(np.arange(A.nnz), npairs)
        e_right = np.arange(e_left.size) - np.repeat(first_pair - start, npairs)
        col = np.repeat(np.arange(n), counts)[e_left]
        pos = A.indices[e_right].astype(np.int64) * m + A.indices[e_left]
        # (position, column) keys are distinct; m*m*n stays below 2**63 for
        # any m whose dense m x m matrix fits in memory
        order = np.argsort(pos * n + col)
        # one reordered copy at a time keeps the peak at six arrays per pair
        e_left = e_left[order]
        left = A.data[e_left]
        del e_left
        e_right = e_right[order]
        right = A.data[e_right]
        del e_right
        return cls(m=m, n=n, left=left, right=right, col=col[order], pos=pos[order])

    def assemble(self, dinv: np.ndarray) -> np.ndarray:
        w = (self.left * dinv[self.col]) * self.right
        if not np.logical_and.reduce(np.isfinite(w)):
            raise NonFiniteInput("normal matrix has non-finite entries")
        # bincount of no pairs returns integer zeros, hence the astype (a no-op otherwise)
        M = np.bincount(self.pos, w, minlength=self.m * self.m).astype(float, copy=False)
        return M.reshape(self.m, self.m)


@dataclass
class ProductPlan:
    """Assembly by scipy's sparse product, for a CSC A whose pair table is too large."""

    A: sp.csc_matrix
    At: sp.csr_matrix = field(init=False, repr=False)
    n: int = field(init=False, repr=False)

    def __post_init__(self):
        # A^t over A's own arrays, built once: what A.T returns, without a copy
        m, n = self.A.shape
        self.n = n
        self.At = sp.csr_matrix((self.A.data, self.A.indices, self.A.indptr), shape=(n, m))

    def assemble(self, dinv: np.ndarray) -> np.ndarray:
        M = (self.A.multiply(dinv) @ self.At).toarray()
        if not np.logical_and.reduce(np.isfinite(M), axis=None):
            raise NonFiniteInput("normal matrix has non-finite entries")
        # the pair plan's upper triangle: the product's lower one, transposed
        return np.ascontiguousarray(np.tril(M).T)


NormalPlan = PairPlan | ProductPlan


def _canonical_csc(A):
    A = sp.csc_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def normal_plan(A) -> NormalPlan:
    """Plan for assembling A diag(dinv) A^t repeatedly with the same A.

    A pair table when it has at most PAIR_BUDGET pairs or at most
    nnz(A) + m^2 of them, else the sparse product; the count is taken before
    anything per pair is allocated.
    """
    C = _canonical_csc(A)
    m = C.shape[0]
    counts = np.diff(C.indptr).astype(np.int64)
    pairs = int(counts @ (counts + 1)) // 2
    if pairs > PAIR_BUDGET and pairs > C.nnz + m * m:
        return ProductPlan(sp.csc_matrix(A))
    return PairPlan.build(C)


def assemble_normal(plan: NormalPlan, dinv: np.ndarray) -> np.ndarray:
    """The upper triangle of M = A diag(dinv) A^t, as a new C-ordered m x m array.

    ``plan`` is ``normal_plan(A)``, and ``dinv`` must have shape (n,) for the
    n columns of A, else ``ValueError``.  Entry (k, i), i >= k, holds
    M[i, k] = sum_j (A[i, j] * dinv[j]) * A[k, j], summed over ascending j;
    the strict lower triangle is zero.  That triangle is the lower triangle
    of M^t, all that ``factor`` reads, and ``factor`` may consume the array.
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


def factor_normal(plan: NormalPlan, dinv: np.ndarray) -> CholeskyFactor:
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
