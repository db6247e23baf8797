"""Seeded generator of feasible, bounded LPs, written as MPS text.

Every instance is ``min <c, x>  s.t.  A x = b,  0 <= x <= u`` with a sparse
``A`` and ``b = A x_feas`` for an interior ``x_feas``, so it is feasible.
The objective is bounded either because ``c = A^t y + s`` with ``s > 0``
(a strictly feasible dual) or because every column carries an upper bound.

The MPS writer here is deliberately independent of ``galp.write_mps``: the
program under test only ever sees the text, and a defect in its writer must
not be able to hide a defect in its reader.  The same seed always yields
byte-identical text and the same HiGHS reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Shape:
    """Size and structure of one generated family."""

    m: int
    n: int
    density: float
    boxed: bool


@dataclass
class Instance:
    name: str
    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    upper: np.ndarray  # +inf where a column has no upper bound

    def mps_text(self) -> str:
        """Fixed-layout MPS with repr-exact numbers; rows R<i>, columns X<j>."""
        A = self.A
        out = [f"NAME          {self.name}", "ROWS", " N  COST"]
        out.extend(f" E  R{i}" for i in range(A.shape[0]))
        out.append("COLUMNS")
        for j in range(A.shape[1]):
            if self.c[j] != 0.0:
                out.append(f"    X{j}  COST  {float(self.c[j])!r}")
            lo, hi = A.indptr[j], A.indptr[j + 1]
            for i, v in zip(A.indices[lo:hi], A.data[lo:hi]):
                out.append(f"    X{j}  R{i}  {float(v)!r}")
        out.append("RHS")
        out.extend(f"    RHS  R{i}  {float(v)!r}" for i, v in enumerate(self.b) if v != 0.0)
        boxed = np.flatnonzero(np.isfinite(self.upper))
        if boxed.size:
            out.append("BOUNDS")
            out.extend(f" UP BND  X{j}  {float(self.upper[j])!r}" for j in boxed)
        out.append("ENDATA")
        return "\n".join(out) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.mps_text().encode("ascii")).hexdigest()


def _pattern(rng, m, n, density):
    """Random sparsity pattern with at least one entry in every row and column (needs m <= n)."""
    k = max(int(round(density * m * n)) - m - n, 0)
    rows = np.concatenate([rng.integers(0, m, size=n), np.arange(m), rng.integers(0, m, size=k)])
    cols = np.concatenate([np.arange(n), rng.permutation(n)[:m], rng.integers(0, n, size=k)])
    keys = np.unique(rows.astype(np.int64) * n + cols)
    return keys // n, keys % n


def generate(seed: int, shape: Shape, name: str) -> Instance:
    rng = np.random.default_rng(seed)
    rows, cols = _pattern(rng, shape.m, shape.n, shape.density)
    vals = rng.uniform(0.2, 1.0, size=rows.size) * rng.choice((-1.0, 1.0), size=rows.size)
    A = sp.csc_matrix((vals, (rows, cols)), shape=(shape.m, shape.n))
    x_feas = rng.uniform(0.5, 1.5, size=shape.n)
    b = A @ x_feas
    if shape.boxed:
        upper = x_feas + rng.uniform(0.5, 2.0, size=shape.n)
        c = rng.uniform(-1.0, 1.0, size=shape.n)
    else:
        upper = np.full(shape.n, np.inf)
        y = rng.standard_normal(shape.m)
        c = A.T @ y + rng.uniform(0.1, 1.0, size=shape.n)
    return Instance(name=name, A=A, b=b, c=c, upper=upper)


def highs_reference(inst: Instance) -> float:
    """Optimal objective from scipy's HiGHS; raises if HiGHS finds no optimum."""
    from scipy.optimize import linprog

    bounds = [(0.0, float(u) if np.isfinite(u) else None) for u in inst.upper]
    res = linprog(inst.c, A_eq=inst.A, b_eq=inst.b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS found no optimum for {inst.name}: {res.message}")
    return float(res.fun)
