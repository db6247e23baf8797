"""Normal-equations kernel: assemble A diag(dinv) A^t and solve by Cholesky.

Assembly runs from a plan of A built once per LP (``normal_plan``), so
each ``assemble_normal`` does numeric work only.  The usual plan is a
``PairPlan``: for every column j it lists each pair of stored entries
(i, j), (k, j) with i >= k, sorted by the flat lower-triangle position
i*m + k and then by j, together with the distinct positions and their
mirrors in the upper triangle.  Assembly is one product
(A[i,j]*dinv[j])*A[k,j] per pair, one ``np.bincount`` that sums the pairs of
each position, and two scatters into a dense m x m array.

The pair table costs memory per pair, and a column with c entries has
c(c+1)/2 pairs, so dense columns blow it up: a fully dense 200 x 600 A has
12M pairs.  When the pairs outnumber nnz(A) + m^2, the plan is a
``ProductPlan`` that forms scipy's sparse product each time instead, whose
memory stays of order nnz(A) + m^2.  Below that bound the table keeps 32
bytes per pair, within a small factor of A and of the dense M that every
assembly fills anyway.

The summation order is fixed on purpose.  The pair plan sums every entry
over ascending j with the product association of scipy's
``A.multiply(dinv) @ A.T``, so both plans give M bit for bit and the
iterates, and with them the iteration table, stay byte-identical.
``tests/test_linalg.py`` keeps that product as its oracle and compares with
``np.array_equal``, so a scipy release that changes the order of its sparse
product is flagged there.

Every assembly returns a fresh C-ordered m x m array with both triangles
written from the same sums; positions outside the pattern stay zero.  M is
finite exactly when the pair sums are, so the finiteness check runs on
those nnz sums rather than on all m^2 entries.  The plan is only its pair
table, so ``StandardLP.plan`` keeps one per LP, built on the LP's first
solve.

``factor`` consumes M: it factors the Fortran-ordered view M^t in place with
LAPACK ``dpotrf(clean=0)``, so no m x m copy is made.  The lower triangle of
M^t becomes the factor, and its strict upper triangle (M's strict lower
one) keeps M's entries, since zeroing it would cost a column-strided pass
that no reader needs.  A read-only or non-contiguous M is copied first and
left as it was.  ``solve`` hands the factor straight to ``dpotrs``, which
reads only the lower triangle, for one right-hand side or for several
columns at once; an m x 2 solve gives each column bit for bit as its own
one-column solve.  The lower triangle is ``scipy.linalg.cholesky(M,
lower=True)`` bit for bit.  ``factor`` escalates a relative diagonal
regularization rho in {0, 1e-12, 1e-10, 1e-8, 1e-6} until every pivot is
finite and its square stays above 1e-30; a failed rung restores the
overwritten triangle from its exact mirror and the saved diagonal before
the next one.  The rho actually applied is recorded on the factor so the
solver trace can surface it.  M and L are dense: the solver targets
desk-scale problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

REGULARIZATIONS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)
_MIN_PIVOT = 1e-30


class NonFiniteInput(Exception):
    pass


class FactorizationFailed(Exception):
    pass


@dataclass
class CholeskyFactor:
    """Fortran-ordered Cholesky factor with M + rho*diag(M) ~ L L^t.

    Only the lower triangle of ``L``, diagonal included, is the factor; its
    strict upper triangle still holds M's entries (``dpotrf`` with
    ``clean=0``), so a reader of the factor takes ``np.tril(L)``.
    """

    L: np.ndarray
    rho: float


@dataclass
class PairPlan:
    """Pair table of A diag(dinv) A^t for one constraint matrix A.

    Pair p contributes (left[p] * dinv[col[p]]) * right[p] to the distinct
    lower-triangle position ``target[p]``, whose flat index in the m x m
    array is ``lower[target[p]]`` and whose mirror is ``upper[target[p]]``.
    Pairs are ordered by position and then by column.  The plan holds no
    m x m array: each assembly returns a new one.
    """

    m: int
    n: int  # columns of A: the length of dinv
    left: np.ndarray  # A[i, j] of each pair
    right: np.ndarray  # A[k, j] of each pair
    col: np.ndarray  # j of each pair
    target: np.ndarray  # index into lower/upper of each pair
    lower: np.ndarray  # flat positions i*m + k, i >= k, ascending
    upper: np.ndarray  # flat positions k*m + i of the same entries

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
        flat = A.indices[e_left].astype(np.int64) * m + A.indices[e_right]
        # (position, column) keys are distinct; m*m*n stays below 2**63 for
        # any m whose dense m x m matrix fits in memory
        order = np.argsort(flat * n + col)
        # one reordered copy at a time keeps the peak at six arrays per pair
        e_left = e_left[order]
        e_right = e_right[order]
        col = col[order]
        flat = flat[order]
        del order
        new = np.empty(flat.size, dtype=bool)
        new[:1] = True
        np.not_equal(flat[1:], flat[:-1], out=new[1:])
        lower = flat[new]
        del flat
        i, k = np.divmod(lower, m)
        return cls(
            m=m,
            n=n,
            left=A.data[e_left],
            right=A.data[e_right],
            col=col,
            target=np.cumsum(new) - 1,
            lower=lower,
            upper=k * m + i,
        )

    def assemble(self, dinv: np.ndarray) -> np.ndarray:
        sums = np.bincount(
            self.target, (self.left * dinv[self.col]) * self.right, minlength=self.lower.size
        )
        if not np.logical_and.reduce(np.isfinite(sums)):
            raise NonFiniteInput("normal matrix has non-finite entries")
        M = np.zeros((self.m, self.m))
        flat = M.reshape(-1)
        flat[self.lower] = sums
        flat[self.upper] = sums
        return M


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
        return np.tril(M) + np.tril(M, -1).T


NormalPlan = PairPlan | ProductPlan


def _canonical_csc(A):
    A = sp.csc_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def normal_plan(A) -> NormalPlan:
    """Plan for assembling A diag(dinv) A^t repeatedly with the same A.

    A pair table when it has at most nnz(A) + m^2 pairs, else the sparse
    product; the count is taken before anything per pair is allocated.
    """
    C = _canonical_csc(A)
    m = C.shape[0]
    counts = np.diff(C.indptr).astype(np.int64)
    if int(counts @ (counts + 1)) // 2 > C.nnz + m * m:
        return ProductPlan(sp.csc_matrix(A))
    return PairPlan.build(C)


def assemble_normal(plan: NormalPlan, dinv: np.ndarray) -> np.ndarray:
    """Dense symmetric M with M[i, k] = sum_j A[i, j] * dinv[j] * A[k, j].

    ``plan`` is ``normal_plan(A)``, and ``dinv`` must have shape (n,) for the
    n columns of A, else ``ValueError``.  Both triangles are written from the
    same sums, so M is exactly symmetric, and M is a new C-ordered array
    that ``factor`` may consume.
    """
    dinv = np.asarray(dinv, dtype=float)
    if dinv.shape != (plan.n,):
        raise ValueError(f"dinv needs shape ({plan.n},), got {dinv.shape}")
    # min and max propagate NaN, so this fails on NaN, on either infinity and
    # on a negative entry, as the isfinite and sign tests did, in two reductions
    if not (np.minimum.reduce(dinv, initial=0.0) >= 0.0 and np.maximum.reduce(dinv, initial=0.0) < np.inf):
        raise NonFiniteInput("dinv must be finite and nonnegative")
    return plan.assemble(dinv)


def factor(M: np.ndarray) -> CholeskyFactor:
    """Cholesky-factor the exactly symmetric M in place, escalating the diagonal regularization as needed.

    M is consumed: when M^t is Fortran-contiguous and writeable (a C-ordered
    M from ``assemble_normal``), ``dpotrf`` overwrites it and the factor's
    ``L`` shares M's memory.  Any other M is copied first and left as it
    was.  Only the upper triangle of M is read, as the lower triangle of
    M^t.  A non-finite entry there makes every rung fail, and only then is
    the restored matrix scanned to tell NonFiniteInput from
    FactorizationFailed.
    """
    A = np.asarray(M, dtype=float).T
    if not (A.flags.f_contiguous and A.flags.writeable):
        A = A.copy(order="F")
    diag = A.diagonal().copy()
    for rho in REGULARIZATIONS:
        if rho != 0.0:
            # the same sums as M + rho*np.diag(diag), without an m x m diagonal
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
        _restore(A, diag)
    if not np.logical_and.reduce(np.isfinite(A), axis=None):
        raise NonFiniteInput("normal matrix has non-finite entries")
    raise FactorizationFailed(
        "normal matrix is numerically rank deficient at every regularization level"
    )


def _restore(A: np.ndarray, diag: np.ndarray) -> None:
    """Undo a failed ``dpotrf`` on A: its lower triangle mirrors the strict upper one again, with diagonal ``diag``.

    ``dpotrf(lower=1)`` never writes the strict upper triangle, and the
    matrix is exactly symmetric, so the restored A is the input bit for bit.
    """
    i, k = np.tril_indices(A.shape[0], -1)
    A[i, k] = A[k, i]
    np.fill_diagonal(A, diag)


def solve(F: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Forward/back substitution with the stored lower factor, which LAPACK reads in place.

    ``rhs`` is one vector of length m or an m x k array whose columns are
    solved together; the result has the shape of ``rhs``.
    """
    z, _ = dpotrs(F.L, rhs, lower=1)
    return z
