"""Conversion of a parsed MPS problem to the solver's standard form.

Standard form is

    min <c, x>   s.t.  A x = b,  x >= 0,  x_j <= upper_j  (j in I)

with A sparse in column-major (CSC) layout and ``upper_j = +inf`` off the
bounded set I.  Inequality rows receive slack/surplus variables (bounded by
the range width when a RANGES entry exists), finite lower bounds are shifted
out, free variables are split into positive/negative parts, and fixed
variables are substituted away.  ``VariableMap`` records enough to map a
standard-form point back to the original variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mps import RawMps


class InfeasibleBounds(Exception):
    pass


@dataclass
class StandardLP:
    """LP data in standard form; ``bounded`` indexes the set I.

    ``At`` is A^t as a CSR matrix over A's own ``data``, ``indices`` and
    ``indptr``: built once, nothing copied, so every product with A^t on
    the solve path skips building a new transpose.
    """

    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.A = sp.csc_matrix(self.A)
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
    row_index = {name: i for i, (name, _) in enumerate(constraint_rows)}
    m = len(constraint_rows)

    rhs = dict(raw.rhs)
    ranges = dict(raw.ranges)

    # Original column data, split into objective and constraint coefficients.
    obj = np.zeros(ncols)
    cols = [[] for _ in range(ncols)]  # per original column: (row, coef)
    for col, rname, value in raw.columns:
        k = col_index[col]
        if rname == raw.objective_row:
            obj[k] += value
        elif rname in row_index:
            cols[k].append((row_index[rname], value))
        # coefficients on extra free (N) rows are ignored

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

    b = np.array([rhs.get(name, 0.0) for name, _ in constraint_rows])
    # An RHS entry on the objective row is the negated objective constant.
    offset = -rhs.get(raw.objective_row, 0.0)

    vmap = VariableMap(names=list(col_names), offset=offset)
    triples = []  # (row, std_col, coef)
    c_std = []
    upper_std = []
    nstd = 0

    def new_col(entries, cost, up):
        nonlocal nstd
        j = nstd
        nstd += 1
        triples.extend((i, j, v) for i, v in entries)
        c_std.append(cost)
        upper_std.append(up)
        return j

    for k in range(ncols):
        low, up = lb[k], ub[k]
        if low > up:
            raise InfeasibleBounds(f"variable {col_names[k]!r}: lower {low} > upper {up}")
        if np.isfinite(low) and low == up:
            # Fixed variable: substitute its value into b and the offset.
            for i, v in cols[k]:
                b[i] -= v * low
            vmap.offset += obj[k] * low
            vmap.entries.append(("fixed", low))
        elif np.isfinite(low):
            width = up - low if np.isfinite(up) else np.inf
            if low != 0.0:
                for i, v in cols[k]:
                    b[i] -= v * low
                vmap.offset += obj[k] * low
                j = new_col(cols[k], obj[k], width)
                vmap.entries.append(("shifted", j, low))
            else:
                j = new_col(cols[k], obj[k], width)
                vmap.entries.append(("direct", j))
        elif np.isfinite(up):
            # lb = -inf, finite ub: substitute x = up - z with z >= 0 free above.
            for i, v in cols[k]:
                b[i] -= v * up
            vmap.offset += obj[k] * up
            j = new_col([(i, -v) for i, v in cols[k]], -obj[k], np.inf)
            vmap.entries.append(("negated_shifted", j, up))
        else:
            # Fully free: x = x_pos - x_neg.
            jp = new_col(cols[k], obj[k], np.inf)
            jn = new_col([(i, -v) for i, v in cols[k]], -obj[k], np.inf)
            vmap.entries.append(("split", jp, jn))

    # Slack/surplus columns for inequality rows and ranged rows.
    for name, kind in constraint_rows:
        i = row_index[name]
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
        j = new_col([(i, sign)], 0.0, width)
        vmap.slacks.append((j, name))

    if triples:
        rows_, cols_, vals = zip(*triples)
    else:
        rows_, cols_, vals = [], [], []
    A = sp.csc_matrix((list(vals), (list(rows_), list(cols_))), shape=(m, nstd))
    lp = StandardLP(A=A, b=b, c=np.array(c_std), upper=np.array(upper_std))
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
    bnorm = np.linalg.norm(lp.b, np.inf) if lp.m else 0.0
    rnorm = np.linalg.norm(resid, np.inf) if lp.m else 0.0
    return rnorm / (bnorm + 1.0)


def objective(lp: StandardLP, x: np.ndarray, offset: float = 0.0) -> float:
    return float(lp.c @ x) + offset
