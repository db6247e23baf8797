"""galp's MPS reader as it was before it read data sections in two stages, kept as a test oracle.

``parse_mps`` here checks and transcribes one line at a time: every entry is
checked as its line is read, so the first error in file order is the first
one it meets.  tests/test_mps_oracle.py asserts that ``galp.mps.parse_mps``
returns an equal ``RawMps``, or raises the same class with the same message,
on every registry LP, every malformed fixture and seeded single-edit
mutations of them.  Deliberately slow and simple; it shares only the result
and exception types with the reader under test.  Its one change from that
reader is the newline rule: a string goes through ``io.StringIO(source,
newline=None)``, so ``\\r\\n`` and ``\\r`` end lines as they do for a file.
"""

import io
import math

from galp.mps import (
    DuplicateEntry,
    MalformedNumber,
    MissingEndata,
    RawMps,
    UndeclaredName,
    UnknownBoundKind,
    UnknownRowKind,
    UnknownSection,
)

ROW_KINDS = ("N", "L", "G", "E")
_INTEGER_BOUNDS = ("BV", "LI", "UI")
_SECTION_ORDER = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")
# kind: (valued, the one infinity a valued kind admits, meaning "no bound")
_BOUND_KINDS = {
    "UP": (True, math.inf),
    "LO": (True, -math.inf),
    "FX": (True, None),
    "FR": (False, None),
    "MI": (False, None),
    "PL": (False, None),
}


def _number(token, lineno, no_bound=None):
    try:
        value = float(token)
    except ValueError:
        raise MalformedNumber(f"cannot parse number {token!r}", lineno) from None
    if not (math.isfinite(value) or value == no_bound):
        raise MalformedNumber(f"non-finite number {token!r}", lineno)
    return value


def parse_mps(source) -> RawMps:
    """Parse an MPS document from a string, bytes, or readable stream."""
    if isinstance(source, bytes):
        source = source.decode("ascii", errors="replace")
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)

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
            spec = _BOUND_KINDS.get(kind)
            if spec is None:
                raise UnknownBoundKind(f"unknown bound kind {tokens[0]!r}", lineno)
            valued, no_bound = spec
            if ntok - valued not in (2, 3):
                raise MalformedNumber(f"malformed bound line {stripped!r}", lineno)
            if valued:
                col, value = tokens[-2], _number(tokens[-1], lineno, no_bound)
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
