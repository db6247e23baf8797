import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from galp import parse_mps
from galp.model import (
    InfeasibleBounds,
    StandardLP,
    map_back,
    objective,
    primal_infeasibility,
    to_standard_form,
)

from conftest import random_lp


def build(rows, columns, rhs="", extra=""):
    text = "NAME T\nROWS\n N  COST\n" + rows + "COLUMNS\n" + columns + "RHS\n" + rhs + extra + "ENDATA\n"
    return parse_mps(text)


def test_equality_row_passthrough():
    raw = build(" E  R1\n", "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n", "    RHS  R1  1.0\n")
    lp, vmap = to_standard_form(raw)
    assert (lp.m, lp.n) == (1, 2)
    assert len(lp.bounded) == 0
    assert_allclose(lp.b, [1.0])
    assert vmap.offset == 0.0


def test_l_row_gets_slack():
    raw = build(" L  R1\n", "    X1  COST  1.0  R1  1.0\n", "    RHS  R1  4.0\n")
    lp, _ = to_standard_form(raw)
    assert (lp.m, lp.n) == (1, 2)
    assert_allclose(lp.A.toarray(), [[1.0, 1.0]])
    assert np.isinf(lp.upper[1])


def test_g_row_gets_surplus():
    raw = build(" G  R1\n", "    X1  COST  1.0  R1  1.0\n", "    RHS  R1  4.0\n")
    lp, _ = to_standard_form(raw)
    assert_allclose(lp.A.toarray(), [[1.0, -1.0]])


def test_range_bounds_slack():
    raw = build(
        " L  R1\n",
        "    X1  COST  1.0  R1  1.0\n",
        "    RHS  R1  4.0\n",
        "RANGES\n    RNG  R1  1.5\n",
    )
    lp, vmap = to_standard_form(raw)
    slack = vmap.slacks[0][0]
    assert lp.upper[slack] == 1.5


def test_shifted_bounded_variable():
    raw = build(
        " E  R1\n",
        "    X1  COST  3.0  R1  2.0\n",
        "    RHS  R1  7.0\n",
        "BOUNDS\n LO BND  X1  2.0\n UP BND  X1  5.0\n",
    )
    lp, vmap = to_standard_form(raw)
    assert_allclose(lp.upper, [3.0])  # width 5 - 2
    assert_allclose(lp.b, [7.0 - 2.0 * 2.0])
    assert vmap.offset == pytest.approx(3.0 * 2.0)
    # mapped-back point reproduces the original row activity
    x = np.array([0.5])
    x_orig = map_back(vmap, x)
    assert_allclose(x_orig, [2.5])
    assert_allclose(2.0 * x_orig[0], (lp.A @ x)[0] + 2.0 * 2.0)


def test_fixed_variable_substituted():
    raw = build(
        " E  R1\n",
        "    X1  COST  3.0  R1  2.0\n    X2  R1  1.0\n",
        "    RHS  R1  7.0\n",
        "BOUNDS\n FX BND  X1  2.0\n",
    )
    lp, vmap = to_standard_form(raw)
    assert lp.n == 1
    assert_allclose(lp.b, [3.0])
    assert vmap.offset == pytest.approx(6.0)
    assert_allclose(map_back(vmap, np.array([3.0])), [2.0, 3.0])


def test_free_variable_split():
    raw = build(
        " E  R1\n",
        "    X1  COST  1.0  R1  1.0\n",
        "    RHS  R1  1.0\n",
        "BOUNDS\n FR BND  X1\n",
    )
    lp, vmap = to_standard_form(raw)
    assert lp.n == 2
    assert_allclose(lp.A.toarray(), [[1.0, -1.0]])
    assert_allclose(lp.c, [1.0, -1.0])
    assert_allclose(map_back(vmap, np.array([1.2, 0.2])), [1.0])


def test_infeasible_bounds_rejected():
    raw = build(
        " E  R1\n",
        "    X1  COST  1.0  R1  1.0\n",
        "    RHS  R1  1.0\n",
        "BOUNDS\n LO BND  X1  3.0\n UP BND  X1  2.0\n",
    )
    with pytest.raises(InfeasibleBounds):
        to_standard_form(raw)


def test_negative_upper_on_default_lower_rejected():
    raw = build(
        " E  R1\n",
        "    X1  COST  1.0  R1  1.0\n",
        "    RHS  R1  1.0\n",
        "BOUNDS\n UP BND  X1  -2.0\n",
    )
    with pytest.raises(InfeasibleBounds):
        to_standard_form(raw)


def test_bounded_indexes_finite_upper():
    upper = np.array([np.inf, 2.0, np.inf, 0.5, 3.0])
    lp = StandardLP(A=sp.csc_matrix(np.ones((1, 5))), b=[1.0], c=np.zeros(5), upper=upper)
    assert lp.bounded.tolist() == [1, 3, 4]
    assert lp.bounded is lp.bounded  # computed once, not per access


def test_transpose_is_a_view_of_a(rng):
    A = sp.random(5, 9, density=0.4, format="coo", random_state=rng)
    A.data[0] = 0.0  # an explicit zero, which construction eliminates
    lp = StandardLP(A=A, b=np.zeros(5), c=np.zeros(9), upper=np.full(9, np.inf))
    assert isinstance(lp.At, sp.csr_matrix)
    assert lp.At.shape == (9, 5)
    assert (lp.At != lp.A.T).nnz == 0
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(lp.At, name), getattr(lp.A, name)), name
    assert lp.At is lp.At  # built once, not per access
    v = rng.normal(size=5)
    assert np.array_equal(lp.At @ v, lp.A.T @ v)


def test_construction_leaves_callers_matrix_alone():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    A.data[1] = 0.0  # an explicit zero, which construction eliminates from its own copy
    before = {name: getattr(A, name).copy() for name in ("data", "indices", "indptr")}
    lp = StandardLP(A=A, b=np.zeros(2), c=np.zeros(2), upper=np.full(2, np.inf))
    assert lp.A.nnz == 3
    assert A.nnz == 4
    for name, arr in before.items():
        assert np.array_equal(getattr(A, name), arr), name


def test_objective_rhs_becomes_offset():
    raw = build(
        " E  R1\n",
        "    X1  COST  1.0  R1  1.0\n",
        "    RHS  R1  1.0\n    RHS  COST  2.5\n",
    )
    _, vmap = to_standard_form(raw)
    assert vmap.offset == pytest.approx(-2.5)


def random_point_consistency(raw, seed):
    """Mapped-back points satisfy the original rows within round-off."""
    lp, vmap = to_standard_form(raw)
    rng = np.random.default_rng(seed)
    constraint_rows = [(name, kind) for name, kind in raw.rows if kind != "N"]
    rhs = dict(raw.rhs)
    cols = {name: k for k, name in enumerate(raw.column_names())}
    ranges = dict(raw.ranges)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, lp.n)
        # project onto Ax = b so the original row relations become testable
        A = lp.A.toarray()
        x = x - A.T @ np.linalg.lstsq(A @ A.T, A @ x - lp.b, rcond=None)[0]
        x_orig = map_back(vmap, x)
        tol = 1e-9 * (1.0 + np.linalg.norm(lp.b, np.inf))
        slack = {name: x[j] for j, name in vmap.slacks}
        for name, kind in constraint_rows:
            activity = sum(
                value * x_orig[cols[col]] for col, rname, value in raw.columns if rname == name
            )
            target = rhs.get(name, 0.0)
            if name in slack:
                # slack reconstructs the exact activity inside the row's band
                sign = 1.0 if (kind == "L" or (kind == "E" and ranges.get(name, 0) < 0)) else -1.0
                assert abs(activity + sign * slack[name] - target) <= tol
            elif kind == "E":
                assert abs(activity - target) <= tol
        # objective of the mapped-back point equals standard objective + offset
        cobj = {col: 0.0 for col in cols}
        for col, rname, value in raw.columns:
            if rname == raw.objective_row:
                cobj[col] += value
        direct = sum(cobj[col] * x_orig[k] for col, k in cols.items())
        constant = -rhs.get(raw.objective_row, 0.0)
        assert objective(lp, x, vmap.offset) == pytest.approx(direct + constant, abs=1e-8)


def test_mapped_back_rows_hold():
    raw = build(
        " E  R1\n L  R2\n G  R3\n",
        "    X1  COST  1.0  R1  1.0  R2  2.0\n"
        "    X2  R1  1.0  R3  1.0\n"
        "    X3  COST  -1.0  R2  1.0  R3  2.0\n",
        "    RHS  R1  1.0  R2  5.0\n    RHS  R3  0.5\n",
        "BOUNDS\n LO BND  X1  0.5\n FR BND  X3\n",
    )
    random_point_consistency(raw, 7)


def test_primal_infeasibility_formula(rng):
    lp, x_feas = random_lp(rng, m=4, n=7)
    assert primal_infeasibility(lp, x_feas) <= 1e-12
    x = rng.uniform(0, 2, lp.n)
    expected = np.max(np.abs(lp.A.toarray() @ x - lp.b)) / (np.max(np.abs(lp.b)) + 1.0)
    assert primal_infeasibility(lp, x) == pytest.approx(expected, rel=1e-12)


def test_primal_infeasibility_tiny():
    lp = StandardLP(
        A=sp.csc_matrix(np.array([[1.0, 1.0]])),
        b=np.array([1.0]),
        c=np.zeros(2),
        upper=np.full(2, np.inf),
    )
    assert primal_infeasibility(lp, np.array([1.0, 1.0])) == pytest.approx(0.5)


def test_primal_infeasibility_no_rows():
    lp = StandardLP(A=sp.csc_matrix((0, 2)), b=np.zeros(0), c=np.zeros(2), upper=np.full(2, np.inf))
    assert primal_infeasibility(lp, np.array([1.0, 2.0])) == 0.0


def test_objective_offset():
    lp = StandardLP(
        A=sp.csc_matrix(np.array([[1.0, 1.0]])),
        b=np.array([1.0]),
        c=np.array([1.0, 0.0]),
        upper=np.full(2, np.inf),
    )
    assert objective(lp, np.array([0.5, 0.5])) == pytest.approx(0.5)
    assert objective(lp, np.array([0.5, 0.5]), offset=2.0) == pytest.approx(2.5)
