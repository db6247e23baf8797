"""Fixed/free-form MPS reader and writer.

Sections are expected in the order NAME, ROWS, COLUMNS, RHS, [RANGES],
[BOUNDS], ENDATA.  Fields are read free-form (whitespace separated); the
classic fixed column positions are a special case of that, so both styles
parse.  Comment lines starting with '*' and blank lines are skipped.

Each line is split once.  COLUMNS data lines, most of a typical file, are
tested for first, and their row/value pairs are walked by index; every
check keeps its order, exception class, message and line number.
``read_mps`` reads files as ASCII, so a byte outside it (say, a latin-1
letter in a comment) becomes U+FFFD instead of stopping the read.

Only continuous bound kinds are accepted (UP, LO, FX, FR, MI, PL); the
integer kinds BV/LI/UI are rejected because the solver handles continuous
LPs only.

Every number must be finite: a NaN anywhere, or an infinity in COLUMNS, RHS
or RANGES, raises ``MalformedNumber`` at its line.  In BOUNDS an infinity is
read only where it means "no bound": ``UP +inf`` (as PL) and ``LO -inf`` (as
MI).  ``to_standard_form`` reads bounds by the same table, ``BOUND_KINDS``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

ROW_KINDS = ("N", "L", "G", "E")
_INTEGER_BOUNDS = ("BV", "LI", "UI")
_SECTION_ORDER = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")


class BoundKind(NamedTuple):
    """The sides a BOUNDS kind sets; a valueless kind sets lower to -inf, upper to +inf."""

    lower: bool
    upper: bool
    valued: bool
    no_bound: float | None = None  # the one infinity a valued kind admits, meaning "no bound"

    def admits(self, value) -> bool:
        return math.isfinite(value) or value == self.no_bound


BOUND_KINDS = {
    "UP": BoundKind(False, True, True, math.inf),
    "LO": BoundKind(True, False, True, -math.inf),
    "FX": BoundKind(True, True, True),
    "FR": BoundKind(True, True, False),
    "MI": BoundKind(True, False, False),
    "PL": BoundKind(False, True, False),
}


class MpsError(Exception):
    """Base class for MPS parse errors; carries the offending line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownSection(MpsError):
    pass


class UnknownRowKind(MpsError):
    pass


class UnknownBoundKind(MpsError):
    pass


class UndeclaredName(MpsError):
    pass


class DuplicateEntry(MpsError):
    pass


class MissingEndata(MpsError):
    pass


class MalformedNumber(MpsError):
    pass


@dataclass(eq=True)
class RawMps:
    """Verbatim transcription of an MPS file.

    ``rows`` lists (row-name, kind) in file order; ``objective_row`` is the
    first N row.  ``columns`` keeps the (column, row, coefficient) triples in
    file order, likewise ``rhs``, ``ranges`` and ``bounds``.
    """

    name: str = ""
    rows: list = field(default_factory=list)
    objective_row: str = ""
    columns: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    ranges: list = field(default_factory=list)
    bounds: list = field(default_factory=list)

    def column_names(self):
        """Column names in order of first appearance."""
        return list(dict.fromkeys([col for col, _, _ in self.columns]))


def _number(token, lineno, admits=math.isfinite):
    """``float(token)``; a value that ``admits`` rejects (by default NaN and ±inf) raises MalformedNumber."""
    try:
        value = float(token)
    except ValueError:
        raise MalformedNumber(f"cannot parse number {token!r}", lineno) from None
    if not admits(value):
        raise MalformedNumber(f"non-finite number {token!r}", lineno)
    return value


def parse_mps(source) -> RawMps:
    """Parse an MPS document from a string, bytes, or readable stream."""
    if isinstance(source, bytes):
        source = source.decode("ascii", errors="replace")
    if isinstance(source, str):
        source = io.StringIO(source)

    raw = RawMps()
    columns = raw.columns
    section = None
    seen_sections = []
    row_names = set()
    col_rows = {}  # column -> the rows it has a coefficient in
    col, rows_of_col = None, None
    rhs_rows = set()
    range_rows = set()
    saw_endata = False
    lineno = 0

    for lineno, line in enumerate(source, start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "*":
            continue
        ntok = len(tokens)

        if section == "COLUMNS" and line[0].isspace():
            # Rows cannot change after ROWS, so a column is checked against
            # them on its first line of each block.
            if tokens[0] != col:
                col = tokens[0]
                if col in row_names:
                    raise DuplicateEntry(f"column name {col!r} collides with a row", lineno)
                rows_of_col = col_rows.setdefault(col, set())
            if ntok < 3 or ntok % 2 == 0:
                raise MalformedNumber(f"expected row/value pairs after column {col!r}", lineno)
            for t in range(1, ntok, 2):
                rname = tokens[t]
                if rname not in row_names:
                    raise UndeclaredName(f"coefficient references unknown row {rname!r}", lineno)
                if rname in rows_of_col:
                    raise DuplicateEntry(f"duplicate coefficient ({col!r}, {rname!r})", lineno)
                rows_of_col.add(rname)
                columns.append((col, rname, _number(tokens[t + 1], lineno)))
            continue

        if not line[0].isspace():
            keyword = tokens[0].upper()
            if keyword not in _SECTION_ORDER:
                raise UnknownSection(f"unknown section {tokens[0]!r}", lineno)
            if seen_sections and _SECTION_ORDER.index(keyword) <= _SECTION_ORDER.index(seen_sections[-1]):
                raise UnknownSection(f"section {keyword} out of order", lineno)
            seen_sections.append(keyword)
            section = keyword
            if keyword == "NAME":
                raw.name = tokens[1] if ntok > 1 else ""
            elif keyword == "ENDATA":
                saw_endata = True
                break
            continue

        stripped = line.rstrip("\n")
        if section == "ROWS":
            if ntok != 2:
                raise UnknownRowKind(f"expected 'kind name', got {stripped!r}", lineno)
            kind, name = tokens[0].upper(), tokens[1]
            if kind not in ROW_KINDS:
                raise UnknownRowKind(f"unknown row kind {tokens[0]!r}", lineno)
            if name in row_names:
                raise DuplicateEntry(f"row {name!r} declared twice", lineno)
            row_names.add(name)
            raw.rows.append((name, kind))
            if kind == "N" and not raw.objective_row:
                raw.objective_row = name

        elif section in ("RHS", "RANGES"):
            # The leading set name is optional; an odd token count means
            # it is present.
            first = ntok % 2
            if ntok == 1:
                raise MalformedNumber(f"expected row/value pairs, got {stripped!r}", lineno)
            dest = raw.rhs if section == "RHS" else raw.ranges
            seen = rhs_rows if section == "RHS" else range_rows
            for t in range(first, ntok, 2):
                rname = tokens[t]
                if rname not in row_names:
                    raise UndeclaredName(f"{section} references unknown row {rname!r}", lineno)
                if rname in seen:
                    raise DuplicateEntry(f"duplicate {section} entry for row {rname!r}", lineno)
                seen.add(rname)
                dest.append((rname, _number(tokens[t + 1], lineno)))

        elif section == "BOUNDS":
            kind = tokens[0].upper()
            if kind in _INTEGER_BOUNDS:
                raise UnknownBoundKind(
                    f"integer bound kind {kind!r} is not supported (continuous LPs only)", lineno
                )
            spec = BOUND_KINDS.get(kind)
            if spec is None:
                raise UnknownBoundKind(f"unknown bound kind {tokens[0]!r}", lineno)
            # kind [set-name] column, then the value of a valued kind
            if ntok - spec.valued not in (2, 3):
                raise MalformedNumber(f"malformed bound line {stripped!r}", lineno)
            if spec.valued:
                col, value = tokens[-2], _number(tokens[-1], lineno, spec.admits)
            else:
                col, value = tokens[-1], None
            if col not in col_rows:
                raise UndeclaredName(f"bound references unknown column {col!r}", lineno)
            raw.bounds.append((kind, col, value))

        else:
            raise UnknownSection(f"data line outside any section: {stripped!r}", lineno)

    if not saw_endata:
        raise MissingEndata("no ENDATA marker", lineno)
    return raw


def read_mps(path) -> RawMps:
    """Parse an MPS file, read as ASCII: a byte outside it becomes U+FFFD."""
    with open(path, encoding="ascii", errors="replace") as fh:
        return parse_mps(fh)


def write_mps(raw: RawMps) -> str:
    """Serialize a RawMps back to MPS text.

    Numbers are written with repr-level precision so that
    ``parse_mps(write_mps(raw)) == raw``.
    """
    out = [f"NAME          {raw.name}".rstrip(), "ROWS"]
    for name, kind in raw.rows:
        out.append(f" {kind}  {name}")
    out.append("COLUMNS")
    for col, rname, value in raw.columns:
        out.append(f"    {col}  {rname}  {value!r}")
    out.append("RHS")
    for rname, value in raw.rhs:
        out.append(f"    RHS  {rname}  {value!r}")
    if raw.ranges:
        out.append("RANGES")
        for rname, value in raw.ranges:
            out.append(f"    RNG  {rname}  {value!r}")
    if raw.bounds:
        out.append("BOUNDS")
        for kind, col, value in raw.bounds:
            if value is None:
                out.append(f" {kind} BND  {col}")
            else:
                out.append(f" {kind} BND  {col}  {value!r}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
