import math
import os

import numpy as np
import pytest

from galp import mps, to_standard_form
from galp.mps import (
    DuplicateEntry,
    MalformedNumber,
    MissingEndata,
    UndeclaredName,
    UnknownBoundKind,
    UnknownRowKind,
    UnknownSection,
    parse_mps,
    read_mps,
    write_mps,
)

from conftest import FIXTURES
from families import NAMED, PANEL

TINY = """NAME          TINY
ROWS
 N  COST
 E  R1
COLUMNS
    X1  COST  1.0  R1  1.0
    X2  COST  2.0  R1  1.0
RHS
    RHS  R1  1.0
ENDATA
"""


def test_tiny_counts():
    raw = parse_mps(TINY)
    assert raw.name == "TINY"
    assert len(raw.rows) == 2
    assert raw.objective_row == "COST"
    assert len(raw.column_names()) == 2
    assert len(raw.columns) == 4
    assert raw.rhs == [("R1", 1.0)]


def test_unknown_section_reports_line():
    bad = TINY.replace("COLUMNS", "COLUMS")
    with pytest.raises(UnknownSection) as err:
        parse_mps(bad)
    assert err.value.line == 5


def test_bounds_transcription():
    text = TINY.replace("ENDATA", "BOUNDS\n UP BND X1 4.0\nENDATA")
    raw = parse_mps(text)
    assert raw.bounds == [("UP", "X1", 4.0)]


def test_negative_upper_bound_transcribed():
    text = TINY.replace("ENDATA", "BOUNDS\n UP BND X1 -4.0\nENDATA")
    raw = parse_mps(text)
    assert raw.bounds == [("UP", "X1", -4.0)]


def test_valueless_bounds():
    text = TINY.replace("ENDATA", "BOUNDS\n FR BND X1\n MI BND X2\nENDATA")
    raw = parse_mps(text)
    assert raw.bounds == [("FR", "X1", None), ("MI", "X2", None)]


def test_accepts_bytes_and_comments():
    text = "* a comment\n" + TINY.replace("RHS\n", "RHS\n* inner comment\n")
    raw = parse_mps(text.encode("ascii"))
    assert raw.rhs == [("R1", 1.0)]


# the line each malformed fixture's error must name
FIXTURE_ERROR_LINES = {
    "bad_section.mps": 5,
    "bad_row_kind.mps": 4,
    "bad_bound_kind.mps": 10,
    "integer_bound.mps": 10,
    "undeclared_row.mps": 6,
    "undeclared_column.mps": 10,
    "duplicate_coef.mps": 7,
    "duplicate_row.mps": 5,
    "missing_endata.mps": 8,
    "bad_number.mps": 6,
}


@pytest.mark.parametrize(
    "fixture, error",
    [
        ("bad_section.mps", UnknownSection),
        ("bad_row_kind.mps", UnknownRowKind),
        ("bad_bound_kind.mps", UnknownBoundKind),
        ("integer_bound.mps", UnknownBoundKind),
        ("undeclared_row.mps", UndeclaredName),
        ("undeclared_column.mps", UndeclaredName),
        ("duplicate_coef.mps", DuplicateEntry),
        ("duplicate_row.mps", DuplicateEntry),
        ("missing_endata.mps", MissingEndata),
        ("bad_number.mps", MalformedNumber),
    ],
)
def test_malformed_fixture(fixture, error):
    with pytest.raises(error) as err:
        read_mps(os.path.join(FIXTURES, fixture))
    assert err.value.line == FIXTURE_ERROR_LINES[fixture]


PAIRS = """NAME          PAIRS
ROWS
 N  COST
 E  R1
 L  R2
COLUMNS
{line7}
    X2  R1  1.0
{line9}
RHS
    RHS  R1  1.0
ENDATA
"""


@pytest.mark.parametrize(
    "line7, line9, error, message",
    [
        ("    X1  R1  1.0  R2  1.O", "", MalformedNumber, "line 7: cannot parse number '1.O'"),
        ("    X1  R1  1.0  R9  2.0", "", UndeclaredName, "line 7: coefficient references unknown row 'R9'"),
        ("    X1  R1  1.0  R2", "", MalformedNumber, "line 7: expected row/value pairs after column 'X1'"),
        ("    X1", "", MalformedNumber, "line 7: expected row/value pairs after column 'X1'"),
        (
            "    X1  R1  1.0",
            "    X1  R2  1.0  R1  3.0",
            DuplicateEntry,
            "line 9: duplicate coefficient ('X1', 'R1')",
        ),
        ("    X1  R9  1.0  R1  bad", "", UndeclaredName, "line 7: coefficient references unknown row 'R9'"),
        ("    X1  R1  bad  R9  1.0", "", MalformedNumber, "line 7: cannot parse number 'bad'"),
        ("    X1  R1  1.0  R1  bad", "", DuplicateEntry, "line 7: duplicate coefficient ('X1', 'R1')"),
        ("    R2  R1  1.0  R2", "", DuplicateEntry, "line 7: column name 'R2' collides with a row"),
        ("    X1  R1  1.0", "    R1  R2  1.0", DuplicateEntry, "line 9: column name 'R1' collides with a row"),
    ],
    ids=[
        "bad-number-second-pair",
        "unknown-row-second-pair",
        "odd-token-count",
        "no-pairs",
        "duplicate-across-blocks",
        "unknown-row-before-bad-number",
        "bad-number-before-unknown-row",
        "duplicate-before-bad-number",
        "row-name-before-odd-count",
        "row-name-in-later-block",
    ],
)
def test_columns_pair_walk_errors(line7, line9, error, message):
    with pytest.raises(error) as err:
        parse_mps(PAIRS.format(line7=line7, line9=line9))
    assert str(err.value) == message


def test_two_pair_columns_line():
    raw = parse_mps(PAIRS.format(line7="    X1  R1  1.5  R2  -2.0", line9="    X1  COST  3.0"))
    assert raw.columns == [("X1", "R1", 1.5), ("X1", "R2", -2.0), ("X2", "R1", 1.0), ("X1", "COST", 3.0)]
    assert raw.column_names() == ["X1", "X2"]


@pytest.mark.parametrize(
    "old, new, token, line",
    [
        ("X2  COST  2.0", "X2  COST  nan", "nan", 7),
        ("X2  COST  2.0", "X2  COST  inf", "inf", 7),
        ("R1  1.0\n    X2", "R1  -inf\n    X2", "-inf", 6),
        ("X2  COST  2.0", "X2  COST  1e999", "1e999", 7),
        ("RHS  R1  1.0", "RHS  R1  NaN", "NaN", 9),
        ("RHS  R1  1.0", "RHS  R1  -Infinity", "-Infinity", 9),
        ("ENDATA", "RANGES\n    RNG  R1  nan\nENDATA", "nan", 11),
        ("ENDATA", "RANGES\n    RNG  R1  inf\nENDATA", "inf", 11),
        ("ENDATA", "BOUNDS\n LO BND X1 inf\nENDATA", "inf", 11),
        ("ENDATA", "BOUNDS\n LO BND X1 nan\nENDATA", "nan", 11),
        ("ENDATA", "BOUNDS\n FX BND X1 inf\nENDATA", "inf", 11),
        ("ENDATA", "BOUNDS\n FX BND X1 -inf\nENDATA", "-inf", 11),
        ("ENDATA", "BOUNDS\n UP BND X1 nan\nENDATA", "nan", 11),
        ("ENDATA", "BOUNDS\n UP BND X1 -inf\nENDATA", "-inf", 11),
    ],
    ids=[
        "columns-nan",
        "columns-inf",
        "columns-minus-inf",
        "columns-overflow",
        "rhs-nan",
        "rhs-minus-infinity",
        "ranges-nan",
        "ranges-inf",
        "lo-inf",
        "lo-nan",
        "fx-inf",
        "fx-minus-inf",
        "up-nan",
        "up-minus-inf",
    ],
)
def test_non_finite_number_rejected(old, new, token, line):
    text = TINY.replace(old, new, 1)
    assert text != TINY
    with pytest.raises(MalformedNumber) as err:
        parse_mps(text)
    assert str(err.value) == f"line {line}: non-finite number {token!r}"


def test_infinite_bound_means_no_bound():
    raw = parse_mps(TINY.replace("ENDATA", "BOUNDS\n UP BND X1 inf\n LO BND X2 -inf\nENDATA"))
    assert raw.bounds == [("UP", "X1", math.inf), ("LO", "X2", -math.inf)]
    assert parse_mps(write_mps(raw)) == raw
    same = parse_mps(TINY.replace("ENDATA", "BOUNDS\n PL BND X1\n MI BND X2\nENDATA"))
    (lp, vmap), (lp_same, vmap_same) = to_standard_form(raw), to_standard_form(same)
    assert (lp.A != lp_same.A).nnz == 0
    for name in ("b", "c", "upper"):
        assert np.array_equal(getattr(lp, name), getattr(lp_same, name))
    assert np.array_equal(vmap.split, vmap_same.split) and vmap.split.tolist() == [False, True]


def test_read_mps_replaces_non_ascii_bytes(tmp_path):
    # one latin-1 byte in a comment line must not stop the read
    head, rest = NAMED["afiro"].path.read_bytes().split(b"\n", 1)
    path = tmp_path / "afiro.mps"
    path.write_bytes(head + b"\n* caf\xe9\n" + rest)
    assert read_mps(path) == NAMED["afiro"].raw()


def test_errors_subclass_mps_error():
    for exc in (
        UnknownSection,
        UnknownRowKind,
        UnknownBoundKind,
        UndeclaredName,
        DuplicateEntry,
        MissingEndata,
        MalformedNumber,
    ):
        assert issubclass(exc, mps.MpsError)


@pytest.mark.parametrize(
    "member",
    PANEL["fixtures"].members + PANEL["corpus"].members,
    ids=lambda member: f"{member.name}.mps",
)
def test_round_trip(member):
    raw = member.raw()
    assert parse_mps(write_mps(raw)) == raw


def test_round_trip_is_value_exact():
    raw = parse_mps(TINY.replace("1.0", "0.1"))
    again = parse_mps(write_mps(raw))
    assert again.columns == raw.columns
    assert again.rhs == raw.rhs


def test_sections_out_of_order():
    bad = "\n".join(
        [
            "NAME X",
            "ROWS",
            " N  COST",
            " E  R1",
            "RHS",
            "    RHS  R1  1.0",
            "COLUMNS",
            "    X1  COST  1.0",
            "ENDATA",
            "",
        ]
    )
    with pytest.raises(UnknownSection):
        parse_mps(bad)
