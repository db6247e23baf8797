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
MI).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

ROW_KINDS = ("N", "L", "G", "E")
BOUND_KINDS = ("UP", "LO", "FX", "FR", "MI", "PL")
_VALUELESS_BOUNDS = ("FR", "MI", "PL")
_INTEGER_BOUNDS = ("BV", "LI", "UI")
_NO_BOUND = {"UP": math.inf, "LO": -math.inf}  # the infinite value each kind may take
_SECTION_ORDER = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")


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
    file order, likewise ``rhs``, ``ranges`` and ``bounds``.  ``warnings``
    collects non-fatal oddities (e.g. a negative UP bound) and is excluded
    from equality comparisons.
    """

    name: str = ""
    rows: list = field(default_factory=list)
    objective_row: str = ""
    columns: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    ranges: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    warnings: list = field(default_factory=list, compare=False)

    def column_names(self):
        """Column names in order of first appearance."""
        return list(dict.fromkeys([col for col, _, _ in self.columns]))


def _number(token, lineno, infinity=None):
    """``float(token)``; NaN, and any infinity other than ``infinity``, raise MalformedNumber."""
    try:
        value = float(token)
    except ValueError:
        raise MalformedNumber(f"cannot parse number {token!r}", lineno) from None
    if not math.isfinite(value) and value != infinity:
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
            if kind not in BOUND_KINDS:
                raise UnknownBoundKind(f"unknown bound kind {tokens[0]!r}", lineno)
            if kind in _VALUELESS_BOUNDS:
                # kind [set-name] column
                col = tokens[-1]
                if len(tokens) not in (2, 3):
                    raise MalformedNumber(f"malformed bound line {stripped!r}", lineno)
                value = None
            else:
                # kind [set-name] column value
                if len(tokens) == 4:
                    col, vtok = tokens[2], tokens[3]
                elif len(tokens) == 3:
                    col, vtok = tokens[1], tokens[2]
                else:
                    raise MalformedNumber(f"malformed bound line {stripped!r}", lineno)
                value = _number(vtok, lineno, _NO_BOUND.get(kind))
            if col not in col_rows:
                raise UndeclaredName(f"bound references unknown column {col!r}", lineno)
            if kind == "UP" and value is not None and value < 0:
                raw.warnings.append(
                    f"line {lineno}: negative UP bound {value} on {col!r}; lower bound kept at 0"
                )
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
