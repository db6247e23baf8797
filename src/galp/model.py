"""Conversion of a parsed MPS problem to the solver's standard form.

Standard form is

    min <c, x>   s.t.  A x = b,  x >= 0,  x_j <= upper_j  (j in I)

with A sparse in column-major (CSC) layout and ``upper_j = +inf`` off the
bounded set I.  Inequality rows receive slack/surplus variables (bounded by
the range width when a RANGES entry exists), finite lower bounds are shifted
out, free variables are split into positive/negative parts, and fixed
variables are substituted away.  ``VariableMap`` records enough to map a
standard-form point back to the original variables.

``to_standard_form`` works in array passes over the coefficient list rather
than entry by entry: names map to indices once, boolean masks classify the
columns (fixed, shifted, negated, split) and the rows (L, G, E, ranged), a
cumsum numbers the standard-form columns, ``np.subtract.at`` moves
substituted values into b in (column, file) order, and A is built by one
COO -> CSC conversion.  The same masks give the ``VariableMap`` arrays, so
the map has one encoding and ``map_back`` is one vector expression.  Bounds
are read by ``parse_mps``'s table, ``mps.BOUND_KINDS``.  A row or bound kind
outside the MPS set, or a bound value ``parse_mps`` would reject, can only
come from a hand-built ``RawMps`` and raises ``ValueError``; so does finite
data that overflows b or the objective offset (a box too wide for a double
gets width +inf, no upper bound).  The output is bit for bit that of a
column-by-column pass, which the tests keep as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from . import linalg
from .mps import BOUND_KINDS, ROW_KINDS, RawMps


class InfeasibleBounds(Exception):
    pass


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class StandardLP:
    """LP data in standard form; ``bounded`` indexes the set I.

    A, b and c must be finite, and ``upper`` may not hold NaN (``ValueError``,
    naming the array); an upper bound <= 0, -inf included, makes the box
    empty (``InfeasibleBounds``).  ``upper_j = +inf`` means no bound.

    ``b``, ``c`` and ``upper`` must have shapes (m,), (n,) and (n,) for the
    m x n matrix A (``ValueError``, naming the array).

    ``A`` is a float64 CSC copy of the caller's matrix with explicit zeros
    dropped, and ``b``, ``c`` and ``upper`` are float64 copies of the
    caller's vectors, so the caller's arrays stay as they were, writeable and
    unaliased.  The copies are read-only, A's ``data``, ``indices`` and
    ``indptr``, ``bounded`` and ``upper_I`` (u_I, gathered once) included,
    so what is derived from them once stays valid for the LP's lifetime:

    * ``m`` and ``n`` are A's dimensions, plain ints set once, so the solve
      path reads them without a call into scipy.
    * ``matvec(x)`` is A x and ``rmatvec(y)`` is A^t y (``bind_products``),
      bound once to A's arrays; every product of A or A^t with a vector on
      the solve path goes through them.
    * ``b_scale`` is 1 + ||b||_inf, the denominator of the residual measure,
      computed on first use.
    * ``plan`` is the normal-equations plan of A (``linalg.normal_plan``),
      built on the LP's first solve, not by ``to_standard_form``, and
      reused by every later solve, at any r. It lives as long as the LP, so
      only repeated solves of one LP save its build.
    * ``start`` is the starting point, which does not depend on r:
      ``solver.choose_start`` computes it on the first solve and stores it
      here, read-only, and every solve starts from a copy of it.
    """

    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    upper: np.ndarray
    start: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.A = sp.csc_matrix(self.A, dtype=float, copy=True)
        self.A.eliminate_zeros()
        self.b = _read_only(np.array(self.b, dtype=float))
        self.c = _read_only(np.array(self.c, dtype=float))
        self.upper = _read_only(np.array(self.upper, dtype=float))
        m, n = self.A.shape
        for name, arr, shape in (("b", self.b, (m,)), ("c", self.c, (n,)), ("upper", self.upper, (n,))):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}; A is {m} x {n}, so it needs {shape}")
        for name, arr in (("A", self.A.data), ("b", self.b), ("c", self.c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        if not (self.upper > 0).all():  # one pass for NaN and for u_j <= 0, -inf included
            if np.isnan(self.upper).any():
                raise ValueError("upper has a NaN entry")
            raise InfeasibleBounds("upper bounds must be positive")
        self.m, self.n = m, n
        self.bounded = _read_only(np.flatnonzero(np.isfinite(self.upper)))
        self.upper_I = _read_only(self.upper[self.bounded])
        for arr in (self.A.data, self.A.indices, self.A.indptr):
            _read_only(arr)
        self.matvec, self.rmatvec = bind_products(self.A)

    @cached_property
    def b_scale(self) -> float:
        return 1.0 + np.maximum.reduce(np.abs(self.b), initial=0.0)

    @cached_property
    def plan(self) -> linalg.PairPlan:
        return linalg.normal_plan(self.A)


def bind_products(A: sp.csc_matrix):
    """(matvec, rmatvec): x -> A x and y -> A^t y for the float64 CSC matrix A.

    Both call the compiled loop that scipy's ``A @ x`` and ``A.T @ y`` end
    in, ``csc_matvec`` over A's arrays and ``csr_matvec`` over the same
    arrays read as A^t in CSR, so each result is scipy's bit for bit, without
    scipy's Python dispatch on every call.  Each call returns a new float64
    vector.  The input must be a 1-D array of the right length (n for
    matvec, m for rmatvec), else ``ValueError``: the loop has no bounds check
    and would read past a short vector.  Any real dtype is converted by the
    loop's wrapper.  The arrays are captured once, so A must not change.
    """
    m, n = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data

    def matvec(x):
        if x.shape != (n,):
            raise ValueError(f"A x needs x of shape ({n},), got {x.shape}")
        out = np.zeros(m)
        csc_matvec(m, n, indptr, indices, data, x, out)
        return out

    def rmatvec(y):
        if y.shape != (m,):
            raise ValueError(f"A^t y needs y of shape ({m},), got {y.shape}")
        out = np.zeros(n)
        csr_matvec(n, m, indptr, indices, data, y, out)
        return out

    return matvec, rmatvec


@dataclass
class VariableMap:
    """Inverse of the standard-form transformation, as arrays over the original variables.

    Original variable k is ``shift[k] + sign[k] * x[col[k]]``, minus
    ``x[col[k] + 1]`` where ``split[k]``; x is the standard-form point.  A
    direct or shifted column has sign +1, a negated one (x = upper - z) -1,
    and a split one (x = x_pos - x_neg) +1 with x_neg in the next column.  A
    fixed variable has sign 0 and col -1, which reads the element
    ``map_back`` appends to x.  The neutral shift, and that appended element,
    are -0.0 rather than 0.0: -0.0 + v is v for every v, -0.0 included, so
    the map returns x[j] itself for a direct column and the bound itself for
    a fixed one.  Slack columns appended for inequality rows are listed in
    ``slacks`` as ``(j, row_name)``.
    """

    names: list
    col: np.ndarray
    sign: np.ndarray
    shift: np.ndarray
    split: np.ndarray
    slacks: list
    offset: float


def to_standard_form(raw: RawMps):
    """Build (StandardLP, VariableMap) from a RawMps."""
    col_names = raw.column_names()
    col_index = {name: k for k, name in enumerate(col_names)}
    ncols = len(col_names)

    constraint_rows = [(name, kind) for name, kind in raw.rows if kind != "N"]
    m = len(constraint_rows)
    for name, kind in constraint_rows:
        if kind not in ROW_KINDS:
            raise ValueError(f"row {name!r} has unknown kind {kind!r}")
    # Row code of a coefficient: its constraint row, or -1 on the objective
    # row; coefficients on extra free (N) rows get -2 and are ignored.
    row_code = {name: i for i, (name, _) in enumerate(constraint_rows)}
    row_code[raw.objective_row] = -1

    rhs = dict(raw.rhs)
    ranges = dict(raw.ranges)

    # Coefficients in file order: original column, row code and value.
    nent = len(raw.columns)
    ent_col = np.fromiter(map(col_index.__getitem__, [col for col, _, _ in raw.columns]), np.intp, nent)
    ent_row = np.fromiter(map(row_code.get, [rname for _, rname, _ in raw.columns], repeat(-2)), np.intp, nent)
    ent_val = np.array([value for _, _, value in raw.columns], dtype=float)
    on_obj = ent_row == -1
    obj = np.zeros(ncols)
    np.add.at(obj, ent_col[on_obj], ent_val[on_obj])

    # Bounds: defaults lb=0, ub=+inf, applied in file order.
    lb = np.zeros(ncols)
    ub = np.full(ncols, np.inf)
    for kind, col, value in raw.bounds:
        spec = BOUND_KINDS.get(kind)
        if spec is None:
            raise ValueError(f"bound on column {col!r} has unknown kind {kind!r}")
        k = col_index[col]
        if spec.valued and not spec.admits(value):
            raise ValueError(f"bound {kind} on column {col!r} has non-finite value {value!r}")
        if spec.lower:
            lb[k] = value if spec.valued else -np.inf
        if spec.upper:
            ub[k] = value if spec.valued else np.inf

    infeasible = lb > ub
    if infeasible.any():
        k = int(np.argmax(infeasible))
        raise InfeasibleBounds(f"variable {col_names[k]!r}: lower {lb[k]} > upper {ub[k]}")
    # Each original column is fixed (substituted away), shifted (x = lb + z),
    # direct (lb = 0), negated (x = ub - z) or split (x = x_pos - x_neg).
    low_finite = np.isfinite(lb)
    up_finite = np.isfinite(ub)
    fixed = low_finite & (lb == ub)
    shifted = low_finite & ~fixed & (lb != 0.0)
    negated = ~low_finite & up_finite
    split = ~low_finite & ~up_finite
    substituted = fixed | shifted | negated
    shift = np.where(negated, ub, np.where(substituted, lb, -0.0))
    ncopies = np.where(fixed, 0, np.where(split, 2, 1))
    first = np.cumsum(ncopies) - ncopies  # standard-form column (x_pos for a split one)
    norig = int(ncopies.sum())

    b = np.array([rhs.get(name, 0.0) for name, _ in constraint_rows])
    # Substituted values move into b row by row in (column, file) order, so
    # each b_i sees its subtractions in the order a column-by-column pass has.
    on_row = ent_row >= 0
    moved = np.flatnonzero(on_row & substituted[ent_col])
    moved = moved[np.argsort(ent_col[moved], kind="stable")]
    # An RHS entry on the objective row is the negated objective constant.
    offset = -rhs.get(raw.objective_row, 0.0)
    col_width = np.full(ncols, np.inf)
    # finite data may overflow here: a width stays +inf, b and offset are checked
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(ub, lb, out=col_width, where=low_finite & up_finite)
        np.subtract.at(b, ent_row[moved], ent_val[moved] * shift[ent_col[moved]])
        for k in np.flatnonzero(substituted):
            offset += obj[k] * shift[k]
    if not math.isfinite(offset):
        raise ValueError("objective offset is non-finite")

    # Slack/surplus columns: an L row gets +1 and a G row -1; an E row gets
    # one only when ranged, -1 for R >= 0 (widens upward) and +1 for R < 0.
    # The width is |R|, or +inf without a range; a zero-width row stays an
    # equality.
    row_kind = np.array([kind for _, kind in constraint_rows], dtype=str)
    ranged = np.array([name in ranges for name, _ in constraint_rows], dtype=bool)
    rng = np.array([ranges.get(name, np.inf) for name, _ in constraint_rows], dtype=float)
    slack_width = np.abs(rng)
    slack_sign = np.where((row_kind == "G") | ((row_kind == "E") & (rng >= 0)), -1.0, 1.0)
    slack_rows = np.flatnonzero((ranged | (row_kind != "E")) & (slack_width != 0.0))
    nstd = norig + len(slack_rows)
    slacks = [(norig + t, constraint_rows[i][0]) for t, i in enumerate(slack_rows.tolist())]

    c = np.zeros(nstd)
    upper = np.empty(nstd)
    kept = ~fixed
    c[first[kept]] = np.where(negated, -obj, obj)[kept]
    upper[first[kept]] = col_width[kept]
    c[first[split] + 1] = -obj[split]
    upper[first[split] + 1] = np.inf
    upper[norig:] = slack_width[slack_rows]

    # COO -> CSC keeps each column's entries in input order, so every column
    # of A receives its coefficients in file order, duplicates included.
    kept_ent = np.flatnonzero(on_row & kept[ent_col])
    twin_ent = kept_ent[split[ent_col[kept_ent]]]
    j_ent = first[ent_col]
    rows = np.concatenate((ent_row[kept_ent], ent_row[twin_ent], slack_rows))
    cols = np.concatenate((j_ent[kept_ent], j_ent[twin_ent] + 1, np.arange(norig, nstd)))
    vals = np.concatenate(
        (np.where(negated[ent_col], -ent_val, ent_val)[kept_ent], -ent_val[twin_ent], slack_sign[slack_rows])
    )
    A = sp.csc_matrix((vals, (rows, cols)), shape=(m, nstd))
    lp = StandardLP(A=A, b=b, c=c, upper=upper)
    vmap = VariableMap(
        names=list(col_names),
        col=np.where(fixed, -1, first),
        sign=np.where(fixed, 0.0, np.where(negated, -1.0, 1.0)),
        shift=shift,
        split=split,
        slacks=slacks,
        offset=offset,
    )
    return lp, vmap


def map_back(vmap: VariableMap, x: np.ndarray) -> np.ndarray:
    """Recover original variable values from a standard-form point."""
    xe = np.append(x, -0.0)  # what a fixed variable's col -1 reads
    out = vmap.shift + vmap.sign * xe[vmap.col]
    out[vmap.split] -= xe[vmap.col[vmap.split] + 1]
    return out


def primal_infeasibility(lp: StandardLP, x: np.ndarray, resid: np.ndarray | None = None) -> float:
    """Feasibility measure ||Ax - b||_inf / (||b||_inf + 1).

    x is any 1-D array-like of length n.  A caller that already holds
    ``resid = b - A x`` passes it in, and x is then not read.
    """
    if resid is None:
        resid = lp.b - lp.matvec(np.asarray(x))
    return np.maximum.reduce(np.abs(resid), initial=0.0) / lp.b_scale


def objective(lp: StandardLP, x: np.ndarray, offset: float = 0.0) -> float:
    return float(lp.c @ x) + offset
