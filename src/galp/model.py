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
the map has one encoding and ``map_back`` is one vector expression.  Bound
kinds are read from a table.  A row or bound kind outside the MPS set, which
only a hand-built ``RawMps`` can carry, raises ``ValueError``.  The output
is bit for bit that of a column-by-column pass, which the tests keep as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .mps import _VALUELESS_BOUNDS, ROW_KINDS, RawMps


class InfeasibleBounds(Exception):
    pass


# Bound kind -> (sets lower, sets upper).  FR, MI and PL carry no value: the
# side they set becomes -inf (lower) or +inf (upper).
_BOUND_SETS = {
    "UP": (False, True),
    "LO": (True, False),
    "FX": (True, True),
    "FR": (True, True),
    "MI": (True, False),
    "PL": (False, True),
}


@dataclass
class StandardLP:
    """LP data in standard form; ``bounded`` indexes the set I.

    ``A`` is a CSC copy of the caller's matrix with explicit zeros dropped;
    the caller's matrix is left as it was.  ``At`` is A^t as a CSR matrix over A's own ``data``, ``indices`` and
    ``indptr``: built once, nothing copied, so every product with A^t on
    the solve path skips building a new transpose.
    """

    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.A = sp.csc_matrix(self.A, copy=True)
        self.A.eliminate_zeros()
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        finite = np.isfinite(self.upper)
        if np.any(self.upper[finite] <= 0):
            raise InfeasibleBounds("finite upper bounds must be positive")
        self.bounded = np.flatnonzero(finite)
        self.At = self.A.T

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


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
        if kind not in _BOUND_SETS:
            raise ValueError(f"bound on column {col!r} has unknown kind {kind!r}")
        k = col_index[col]
        sets_lower, sets_upper = _BOUND_SETS[kind]
        valueless = kind in _VALUELESS_BOUNDS
        if sets_lower:
            lb[k] = -np.inf if valueless else value
        if sets_upper:
            ub[k] = np.inf if valueless else value

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
    col_width = np.full(ncols, np.inf)
    np.subtract(ub, lb, out=col_width, where=low_finite & up_finite)
    ncopies = np.where(fixed, 0, np.where(split, 2, 1))
    first = np.cumsum(ncopies) - ncopies  # standard-form column (x_pos for a split one)
    norig = int(ncopies.sum())

    b = np.array([rhs.get(name, 0.0) for name, _ in constraint_rows])
    # Substituted values move into b row by row in (column, file) order, so
    # each b_i sees its subtractions in the order a column-by-column pass has.
    on_row = ent_row >= 0
    moved = np.flatnonzero(on_row & substituted[ent_col])
    moved = moved[np.argsort(ent_col[moved], kind="stable")]
    np.subtract.at(b, ent_row[moved], ent_val[moved] * shift[ent_col[moved]])
    # An RHS entry on the objective row is the negated objective constant.
    offset = -rhs.get(raw.objective_row, 0.0)
    for k in np.flatnonzero(substituted):
        offset += obj[k] * shift[k]

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


def primal_infeasibility(lp: StandardLP, x: np.ndarray) -> float:
    """Feasibility measure ||Ax - b||_inf / (||b||_inf + 1)."""
    resid = lp.A @ x - lp.b
    return np.abs(resid).max(initial=0.0) / (np.abs(lp.b).max(initial=0.0) + 1.0)


def objective(lp: StandardLP, x: np.ndarray, offset: float = 0.0) -> float:
    return float(lp.c @ x) + offset
