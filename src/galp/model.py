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
columns (fixed, shifted, negated, split), a cumsum numbers the standard-form
columns, ``np.subtract.at`` moves substituted values into b in (column,
file) order, and A is built by one COO -> CSC conversion.  Its output is bit
for bit that of a column-by-column pass, which the tests keep as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .mps import RawMps


class InfeasibleBounds(Exception):
    pass


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
    """Inverse of the standard-form transformation.

    ``entries[k]`` describes original variable k as one of
    ``("direct", j)``, ``("shifted", j, lower)``, ``("split", j_pos, j_neg)``,
    ``("negated_shifted", j, upper)`` or ``("fixed", value)``, where j indexes
    standard-form columns.  Slack columns appended for inequality rows are
    listed in ``slacks`` as ``(j, row_name)``.
    """

    names: list = field(default_factory=list)
    entries: list = field(default_factory=list)
    slacks: list = field(default_factory=list)
    offset: float = 0.0


def to_standard_form(raw: RawMps):
    """Build (StandardLP, VariableMap) from a RawMps."""
    col_names = raw.column_names()
    col_index = {name: k for k, name in enumerate(col_names)}
    ncols = len(col_names)

    constraint_rows = [(name, kind) for name, kind in raw.rows if kind != "N"]
    m = len(constraint_rows)
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

    # Bounds: defaults lb=0, ub=+inf, applied in file order; the parser
    # admits only the six kinds below.
    lb = np.zeros(ncols)
    ub = np.full(ncols, np.inf)
    for kind, col, value in raw.bounds:
        k = col_index[col]
        if kind == "UP":
            ub[k] = value
        elif kind == "LO":
            lb[k] = value
        elif kind == "FX":
            lb[k] = value
            ub[k] = value
        elif kind == "FR":
            lb[k] = -np.inf
            ub[k] = np.inf
        elif kind == "MI":
            lb[k] = -np.inf
        elif kind == "PL":
            ub[k] = np.inf

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
    shift = np.where(negated, ub, lb)
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

    vmap = VariableMap(names=list(col_names), offset=offset)
    how = np.select([fixed, shifted, negated, split], [1, 2, 3, 4])  # 0: direct
    for code, j, low, up in zip(how.tolist(), first.tolist(), lb.tolist(), ub.tolist()):
        if code == 0:
            vmap.entries.append(("direct", j))
        elif code == 1:
            vmap.entries.append(("fixed", low))
        elif code == 2:
            vmap.entries.append(("shifted", j, low))
        elif code == 3:
            vmap.entries.append(("negated_shifted", j, up))
        else:
            vmap.entries.append(("split", j, j + 1))

    # Slack/surplus columns for inequality rows and ranged rows.
    slack_rows, slack_signs, slack_widths = [], [], []
    for i, (name, kind) in enumerate(constraint_rows):
        rng = ranges.get(name)
        if kind == "L":
            width = abs(rng) if rng is not None else np.inf
            sign = 1.0
        elif kind == "G":
            width = abs(rng) if rng is not None else np.inf
            sign = -1.0
        elif kind == "E":
            if rng is None:
                continue
            # MPS convention: R >= 0 widens upward, R < 0 widens downward.
            width = abs(rng)
            sign = -1.0 if rng >= 0 else 1.0
        if width == 0.0:
            continue  # zero-width range: the row is an equality
        vmap.slacks.append((norig + len(slack_rows), name))
        slack_rows.append(i)
        slack_signs.append(sign)
        slack_widths.append(width)
    nstd = norig + len(slack_rows)

    c = np.zeros(nstd)
    upper = np.empty(nstd)
    kept = ~fixed
    c[first[kept]] = np.where(negated, -obj, obj)[kept]
    upper[first[kept]] = col_width[kept]
    c[first[split] + 1] = -obj[split]
    upper[first[split] + 1] = np.inf
    upper[norig:] = slack_widths

    # COO -> CSC keeps each column's entries in input order, so every column
    # of A receives its coefficients in file order, duplicates included.
    kept_ent = np.flatnonzero(on_row & kept[ent_col])
    twin_ent = kept_ent[split[ent_col[kept_ent]]]
    j_ent = first[ent_col]
    rows = np.concatenate((ent_row[kept_ent], ent_row[twin_ent], slack_rows)).astype(np.intp)
    cols = np.concatenate((j_ent[kept_ent], j_ent[twin_ent] + 1, np.arange(norig, nstd)))
    vals = np.concatenate(
        (np.where(negated[ent_col], -ent_val, ent_val)[kept_ent], -ent_val[twin_ent], slack_signs)
    )
    A = sp.csc_matrix((vals, (rows, cols)), shape=(m, nstd))
    lp = StandardLP(A=A, b=b, c=c, upper=upper)
    return lp, vmap


def map_back(vmap: VariableMap, x: np.ndarray) -> np.ndarray:
    """Recover original variable values from a standard-form point."""
    out = np.empty(len(vmap.entries))
    for k, entry in enumerate(vmap.entries):
        tag = entry[0]
        if tag == "direct":
            out[k] = x[entry[1]]
        elif tag == "shifted":
            out[k] = x[entry[1]] + entry[2]
        elif tag == "negated_shifted":
            out[k] = entry[2] - x[entry[1]]
        elif tag == "split":
            out[k] = x[entry[1]] - x[entry[2]]
        else:  # fixed
            out[k] = entry[1]
    return out


def primal_infeasibility(lp: StandardLP, x: np.ndarray) -> float:
    """Feasibility measure ||Ax - b||_inf / (||b||_inf + 1)."""
    resid = lp.A @ x - lp.b
    return np.abs(resid).max(initial=0.0) / (np.abs(lp.b).max(initial=0.0) + 1.0)


def objective(lp: StandardLP, x: np.ndarray, offset: float = 0.0) -> float:
    return float(lp.c @ x) + offset
