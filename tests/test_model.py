import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from galp import parse_mps
from galp.mps import RawMps
from galp.model import (
    InfeasibleBounds,
    StandardLP,
    bind_products,
    map_back,
    objective,
    primal_infeasibility,
    to_standard_form,
)

from galp.solver import SolverConfig, Status, solve

from conftest import NETLIB_PROBLEMS, random_lp
from families import NAMED, PANEL


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


def product_oracle_holds(lp, rng):
    """lp.matvec and lp.rmatvec give scipy's A @ x and A.T @ y bit for bit, in fresh float64 vectors."""
    x, y = rng.normal(size=lp.n), rng.normal(size=lp.m)
    for got, want in ((lp.matvec(x), lp.A @ x), (lp.rmatvec(y), lp.A.T @ y)):
        assert got.dtype == np.float64 and got.flags.writeable
        assert np.array_equal(got, want)
    assert lp.matvec(x) is not lp.matvec(x)


@pytest.mark.parametrize("name", NETLIB_PROBLEMS)
def test_products_match_scipy_on_corpus(name, rng):
    # a scipy release that changes _sparsetools, or the order of its sums, fails here
    product_oracle_holds(NAMED[name].lp(), rng)


def test_products_match_scipy_with_empty_row_and_column(rng):
    A = sp.random(4, 6, density=0.6, format="lil", random_state=rng)
    A[2, :] = 0.0
    A[:, 3] = 0.0
    lp = StandardLP(A=sp.csc_matrix(A), b=np.ones(4), c=np.ones(6), upper=np.full(6, np.inf))
    assert not lp.A.toarray()[2].any() and not lp.A.toarray()[:, 3].any()
    product_oracle_holds(lp, rng)
    for m, n in ((0, 3), (2, 0), (0, 0)):
        product_oracle_holds(StandardLP(A=sp.csc_matrix((m, n)), b=np.zeros(m), c=np.zeros(n),
                                        upper=np.full(n, np.inf)), rng)


def test_integer_matrix_is_stored_as_float64_with_scipys_products(rng):
    A_int = sp.csc_matrix(np.array([[1, 0, 2, -3], [0, 4, 5, 0], [7, 0, 0, 1]], dtype=np.int64))
    A_float = sp.csc_matrix(A_int.toarray().astype(float))
    lp = StandardLP(A=A_int, b=[3.0, 9.0, 8.0], c=[1.0, 2.0, 0.5, 1.0], upper=np.full(4, np.inf))
    assert lp.A.dtype == np.float64 and A_int.dtype == np.int64
    product_oracle_holds(lp, rng)
    x, y = rng.normal(size=4), rng.normal(size=3)
    assert np.array_equal(lp.matvec(x), A_int @ x)
    assert np.array_equal(lp.rmatvec(y), A_int.T @ y)
    # the solve on the integer matrix is the solve on its float64 copy, bit for bit
    twin = StandardLP(A=A_float, b=lp.b, c=lp.c, upper=lp.upper)
    reports = [solve(lp_, SolverConfig(r=0.2)) for lp_ in (lp, twin)]
    assert reports[0].status == Status.OPTIMAL
    assert repr(reports[0].trace) == repr(reports[1].trace)
    for field_ in ("x", "y", "s", "w"):
        assert np.array_equal(getattr(reports[0], field_), getattr(reports[1], field_)), field_


def test_products_with_int64_indices(rng):
    A = sp.random(5, 7, density=0.5, format="csc", random_state=rng)
    A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    x, y = rng.normal(size=7), rng.normal(size=5)
    # the kernels bound to the int64 arrays themselves, as an LP whose copy keeps them would be
    matvec, rmatvec = bind_products(A)
    assert np.array_equal(matvec(x), A @ x)
    assert np.array_equal(rmatvec(y), A.T @ y)
    lp = StandardLP(A=A, b=np.zeros(5), c=np.zeros(7), upper=np.full(7, np.inf))
    assert np.array_equal(lp.matvec(x), A @ x)
    assert np.array_equal(lp.rmatvec(y), A.T @ y)


def test_products_reject_a_vector_of_the_wrong_shape():
    # the compiled loop has no bounds check: fed a 1-vector for 3 columns it
    # reads past the end and returns garbage instead of failing
    lp = StandardLP(A=sp.csc_matrix([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]), b=[1.0, 1.0], c=np.zeros(3),
                    upper=np.full(3, np.inf))
    for bad in (np.ones(1), np.ones(2), np.ones(4), np.ones((3, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="needs x of shape"):
            lp.matvec(bad)
        with pytest.raises(ValueError, match="needs x of shape"):
            primal_infeasibility(lp, bad)
    for bad in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="needs y of shape"):
            lp.rmatvec(bad)
    with pytest.raises(ValueError, match="needs x of shape"):
        primal_infeasibility(lp, [1.0])


def test_primal_infeasibility_takes_any_1d_array_like():
    lp = StandardLP(A=sp.csc_matrix([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]), b=[1.0, 1.0], c=np.zeros(3),
                    upper=np.full(3, np.inf))
    expected = primal_infeasibility(lp, np.array([1.0, 2.0, 3.0]))
    assert expected == 17.0 / 2.0
    strided = np.array([1.0, 0.0, 2.0, 0.0, 3.0])[::2]
    for x in ([1, 2, 3], [1.0, 2.0, 3.0], (1, 2, 3), np.array([1, 2, 3]), np.array([1, 2, 3], np.float32),
              strided):
        assert primal_infeasibility(lp, x) == expected, x
    start = np.array([1.0, 2.0, 3.0])
    start.flags.writeable = False
    assert primal_infeasibility(lp, start) == expected


@pytest.mark.parametrize(
    "changes",
    [dict(b=np.ones(3)), dict(b=np.ones(1)), dict(b=np.ones((2, 1))), dict(c=np.ones(2)), dict(c=np.ones(1)),
     dict(upper=np.ones(2)), dict(upper=np.ones(1))],
    ids=["b-length-3", "b-length-1", "b-2x1", "c-length-2", "c-length-1", "upper-length-2", "upper-length-1"],
)
def test_standard_lp_rejects_vectors_that_do_not_match_a(changes):
    # unchecked, each of these reached solve, which then raised ValueError or IndexError
    data = dict(A=sp.csc_matrix([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]), b=np.ones(2), c=np.ones(3),
                upper=np.full(3, 5.0))
    data.update(changes)
    (name,) = changes
    with pytest.raises(ValueError, match=f"^{name} has shape"):
        StandardLP(**data)


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


@pytest.mark.parametrize(
    "rows, bounds, message",
    [
        ([("COST", "N"), ("R1", "L"), ("R2", "l")], [], "row 'R2' has unknown kind 'l'"),
        ([("COST", "N"), ("R2", "l"), ("R1", "L")], [], "row 'R2' has unknown kind 'l'"),
        ([("COST", "N"), ("R1", "L"), ("R2", "E")], [("BV", "X1", None)], "bound on column 'X1' has unknown kind 'BV'"),
    ],
    ids=["row-after-l-row", "first-row", "integer-bound"],
)
def test_unknown_kind_in_hand_built_raw_mps_raises(rows, bounds, message):
    raw = RawMps(
        rows=rows,
        objective_row="COST",
        columns=[("X1", "COST", 1.0), ("X1", "R1", 1.0), ("X1", "R2", 2.0)],
        bounds=bounds,
    )
    with pytest.raises(ValueError) as err:
        to_standard_form(raw)
    assert str(err.value) == message


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "kind, value",
    [("LO", INF), ("LO", NAN), ("UP", NAN), ("UP", -INF), ("FX", NAN), ("FX", INF), ("FX", -INF)],
    ids=["lo-inf", "lo-nan", "up-nan", "up-minus-inf", "fx-nan", "fx-inf", "fx-minus-inf"],
)
def test_non_finite_bound_value_in_hand_built_raw_mps_raises(kind, value):
    # parse_mps rejects these values; a hand-built RawMps must not turn them
    # into a free, split or unbounded column
    raw = RawMps(
        rows=[("COST", "N"), ("R1", "E")],
        objective_row="COST",
        columns=[("X1", "COST", 1.0), ("X1", "R1", 1.0), ("X2", "R1", 1.0)],
        rhs=[("R1", 1.0)],
        bounds=[(kind, "X1", value)],
    )
    with pytest.raises(ValueError) as err:
        to_standard_form(raw)
    assert str(err.value) == f"bound {kind} on column 'X1' has non-finite value {value!r}"


@pytest.mark.parametrize(
    "columns, bounds",
    [
        ("    X3  COST  1e300\n", " LO BND  X3  1e300\n"),
        # inf - inf: the overflowed terms cancel to NaN
        ("    X3  COST  1e300\n    X4  COST  -1e300\n", " LO BND  X3  1e300\n LO BND  X4  1e300\n"),
    ],
    ids=["inf", "nan"],
)
def test_overflowing_objective_offset_raises(columns, bounds):
    # every number is finite, but cost times shift is not; no warning escapes
    columns = "    X1  R1  1.0\n    X2  R1  1.0\n" + columns
    raw = build(" E  R1\n", columns, "    RHS  R1  1.0\n", "BOUNDS\n" + bounds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^objective offset is non-finite$"):
            to_standard_form(raw)


def test_overflowing_box_width_is_no_upper_bound():
    # u - l = 2e308 is past the largest double: the width is +inf, so the
    # shifted column has no upper bound, and no warning escapes
    raw = build(
        " E  R1\n", "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n", "    RHS  R1  1.0\n",
        "BOUNDS\n LO BND  X1  -1e308\n UP BND  X1  1e308\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp, vmap = to_standard_form(raw)
    assert lp.upper[0] == np.inf and len(lp.bounded) == 0
    assert vmap.shift[0] == -1e308 and vmap.offset == -1e308
    assert_allclose(lp.b, [1.0 + 1e308])


def test_no_bound_infinities_in_hand_built_raw_mps_convert():
    # UP +inf and LO -inf mean "no bound", as they do in a parsed file
    raw = RawMps(
        rows=[("COST", "N"), ("R1", "E")],
        objective_row="COST",
        columns=[("X1", "COST", 1.0), ("X1", "R1", 1.0), ("X2", "R1", 1.0)],
        rhs=[("R1", 1.0)],
        bounds=[("UP", "X1", INF), ("LO", "X2", -INF)],
    )
    lp, vmap = to_standard_form(raw)
    assert vmap.split.tolist() == [False, True]
    assert np.all(np.isinf(lp.upper))


def test_standard_lp_arrays_are_read_only_copies():
    A = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]]))
    b, c, upper = np.array([1.0, 2.0]), np.array([1.0, -1.0, 0.5]), np.array([np.inf, 2.0, np.inf])
    inputs = {"A.data": A.data, "A.indices": A.indices, "A.indptr": A.indptr, "b": b, "c": c, "upper": upper}
    lp = StandardLP(A=A, b=b, c=c, upper=upper)
    owned = {
        "A.data": lp.A.data, "A.indices": lp.A.indices, "A.indptr": lp.A.indptr,
        "b": lp.b, "c": lp.c, "upper": lp.upper, "bounded": lp.bounded,
    }
    for name, arr in owned.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
        for caller in inputs.values():
            assert not np.shares_memory(arr, caller), name
    # the caller's arrays are neither frozen nor changed
    for name, arr in inputs.items():
        assert arr.flags.writeable, name
        arr[0] = arr[0]
    assert lp.b_scale == 3.0


def hand_built_lp(**changes):
    """min x1 + 2 x2 s.t. x1 + x2 = 1, x >= 0, with some of its arrays replaced."""
    data = dict(A=sp.csc_matrix([[1.0, 1.0]]), b=[1.0], c=[1.0, 2.0], upper=[np.inf, np.inf])
    data.update(changes)
    return StandardLP(**data)


@pytest.mark.parametrize(
    "error, match, changes",
    [
        (ValueError, "^A has", dict(A=sp.csc_matrix([[NAN, 1.0]]))),
        (ValueError, "^A has", dict(A=sp.csc_matrix([[1.0, INF]]))),
        (ValueError, "^A has", dict(A=sp.csc_matrix([[-INF, 1.0]]))),
        (ValueError, "^b has", dict(b=[NAN])),
        (ValueError, "^b has", dict(b=[INF])),
        (ValueError, "^b has", dict(b=[-INF])),
        (ValueError, "^c has", dict(c=[NAN, 2.0])),
        (ValueError, "^c has", dict(c=[1.0, INF])),
        (ValueError, "^c has", dict(c=[-INF, 2.0])),
        (ValueError, "^upper has", dict(upper=[NAN, INF])),
        # x1 <= -inf empties the box
        (InfeasibleBounds, "must be positive", dict(upper=[-INF, INF])),
    ],
    ids=["A-nan", "A-inf", "A-minus-inf", "b-nan", "b-inf", "b-minus-inf",
         "c-nan", "c-inf", "c-minus-inf", "upper-nan", "upper-minus-inf"],
)
def test_standard_lp_rejects_non_finite_data(error, match, changes):
    # unchecked, such data reaches solve, which wastes iterations on a
    # NumericalFailure, lets a RuntimeWarning out, or, for upper = -inf,
    # reports a false Unbounded
    with pytest.raises(error, match=match):
        hand_built_lp(**changes)


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


@dataclass
class LoopMap:
    """The oracle's variable map: ``entries[k]`` is a tagged tuple for original variable k."""

    names: list = field(default_factory=list)
    entries: list = field(default_factory=list)
    slacks: list = field(default_factory=list)
    offset: float = 0.0


def loop_standard_form(raw):
    """The column-by-column converter that ``to_standard_form`` replaced, kept verbatim as its oracle.

    Only its map container changed: it fills a ``LoopMap`` of tagged entries.
    """
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

    vmap = LoopMap(names=list(col_names), offset=offset)
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


def loop_map_back(vmap, x):
    """The loop ``map_back`` that the array map replaced, kept verbatim as its oracle."""
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


def entries_as_arrays(entries):
    """The oracle's tagged entries as the (col, sign, shift, split) lists of ``VariableMap``."""
    translate = {
        "direct": lambda j: (j, 1.0, -0.0, False),
        "shifted": lambda j, low: (j, 1.0, low, False),
        "negated_shifted": lambda j, up: (j, -1.0, up, False),
        "split": lambda j_pos, j_neg: (j_pos, 1.0, -0.0, True),
        "fixed": lambda value: (-1, 0.0, value, False),
    }
    assert all(args[1] == args[0] + 1 for tag, *args in entries if tag == "split")
    rows = [translate[tag](*args) for tag, *args in entries]
    return [list(column) for column in zip(*rows)] or [[], [], [], []]


def assert_same_arrays(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def assert_matches_loop_converter(raw):
    """to_standard_form gives the oracle's StandardLP and VariableMap bit for bit, or its error."""
    try:
        old_lp, old_map = loop_standard_form(raw)
    except InfeasibleBounds as exc:
        with pytest.raises(InfeasibleBounds) as err:
            to_standard_form(raw)
        assert str(err.value) == str(exc)
        return "infeasible"
    lp, vmap = to_standard_form(raw)
    assert lp.A.shape == old_lp.A.shape
    for name in ("data", "indices", "indptr"):
        assert_same_arrays(getattr(lp.A, name), getattr(old_lp.A, name))
    for name in ("b", "c", "upper", "bounded"):
        assert_same_arrays(getattr(lp, name), getattr(old_lp, name))
    assert vmap.names == old_map.names
    col, sign, shift, split = entries_as_arrays(old_map.entries)
    assert vmap.col.tolist() == col
    assert [v.hex() for v in vmap.sign.tolist()] == [v.hex() for v in sign]
    assert [v.hex() for v in vmap.shift.tolist()] == [v.hex() for v in shift]
    assert vmap.split.dtype == bool and vmap.split.tolist() == split
    assert vmap.slacks == old_map.slacks
    assert float(vmap.offset).hex() == float(old_map.offset).hex()
    assert_map_back_matches_loop(vmap, old_map, lp.n)
    return "converted"


MAP_BACK_VALUES = np.array([0.0, -0.0, 1.5, -2.25, 1e300, np.inf, -np.inf, np.nan])


def assert_map_back_matches_loop(vmap, old_map, n):
    """map_back returns the loop's bytes on points drawn from MAP_BACK_VALUES and uniformly."""
    rng = np.random.default_rng(n)
    points = [rng.choice(MAP_BACK_VALUES, n) for _ in range(3)] + [rng.uniform(-1e3, 1e3, n)]
    for x in points:
        with np.errstate(invalid="ignore"):  # inf - inf on a split column
            new, old = map_back(vmap, x), loop_map_back(old_map, x)
        assert_same_arrays(new, old)


@pytest.mark.parametrize(
    "member",
    PANEL["corpus"].members + PANEL["fixtures"].members,
    ids=lambda member: f"{member.name}.mps",
)
def test_standard_form_matches_loop_converter_on_files(member):
    assert assert_matches_loop_converter(member.raw()) == "converted"


def test_standard_form_matches_loop_converter_on_generated_instances():
    for family in ("sparse_large", "box_heavy"):
        for member in PANEL[family].members[:2]:
            assert assert_matches_loop_converter(member.raw()) == "converted"


BOUND_VALUES = (-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0)


def random_raw_mps(rng):
    """A small RawMps drawing every row, bound and range case.

    Rows mix L, G and E with extra N rows; columns come in non-contiguous
    blocks, touch the objective and the extra N rows, and some carry zero
    coefficients or, unlike parsed input, a coefficient repeated four times; bounds take all six kinds with negative, zero and positive
    values (so some columns are fixed and some bound pairs are infeasible);
    RANGES hit L, G and E rows with either sign or zero width; the RHS may
    name the objective row.
    """
    m = int(rng.integers(0, 6))
    n = int(rng.integers(0, 7))
    rows = [(f"R{i}", str(rng.choice(["L", "G", "E"]))) for i in range(m)]
    for t in range(int(rng.integers(0, 3))):
        rows.insert(int(rng.integers(0, len(rows) + 1)), (f"FREE{t}", "N"))
    rows.insert(int(rng.integers(0, len(rows) + 1)), ("COST", "N"))
    names = [name for name, _ in rows]
    objective_row = next(name for name, kind in rows if kind == "N")

    pairs = [(f"X{j}", name) for j in range(n) for name in names if rng.random() < 0.5]
    if pairs and rng.random() < 0.2:
        pairs += [pairs[0]] * 3  # a repeated coefficient, which A sums in file order
    columns = []
    for t in rng.permutation(len(pairs)):
        col, name = pairs[t]
        value = 0.0 if rng.random() < 0.1 else float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0))
        columns.append((col, name, value))
    col_names = list(dict.fromkeys(col for col, _, _ in columns))

    rhs = [(name, float(rng.uniform(-5.0, 5.0))) for name in names if rng.random() < 0.6]
    constraint = [name for name, kind in rows if kind != "N"]
    ranges = [(name, float(rng.choice([-1.5, -0.0, 0.0, 2.0]))) for name in constraint if rng.random() < 0.4]
    bounds = []
    for col in col_names:
        for _ in range(int(rng.integers(0, 3))):
            kind = str(rng.choice(["UP", "LO", "FX", "FR", "MI", "PL"]))
            value = None if kind in ("FR", "MI", "PL") else float(rng.choice(BOUND_VALUES))
            bounds.append((kind, col, value))
    return RawMps(
        name="RANDOM",
        rows=rows,
        objective_row=objective_row,
        columns=columns,
        rhs=rhs,
        ranges=ranges,
        bounds=bounds,
    )


def test_standard_form_matches_loop_converter_on_random_raw_mps():
    rng = np.random.default_rng(20261018)
    outcomes = []
    seen = set()
    for _ in range(400):
        raw = random_raw_mps(rng)
        outcomes.append(assert_matches_loop_converter(raw))
        kinds = dict(raw.rows)
        seen.update(kind for _, kind in raw.rows)
        seen.update(("bound", kind) for kind, _, _ in raw.bounds)
        seen.update(("range", kinds[name], np.sign(value)) for name, value in raw.ranges)
        if any(name == raw.objective_row for name, _ in raw.rhs):
            seen.add("objective rhs")
        if sum(kind == "N" for _, kind in raw.rows) > 1:
            seen.add("extra N row")
    expected = {"L", "G", "E", "N", "objective rhs", "extra N row"}
    expected |= {("bound", kind) for kind in ("UP", "LO", "FX", "FR", "MI", "PL")}
    expected |= {("range", kind, sign) for kind in "LGE" for sign in (-1.0, 0.0, 1.0)}
    assert expected <= seen
    assert outcomes.count("infeasible") >= 20 and outcomes.count("converted") >= 200
