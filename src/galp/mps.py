"""Fixed/free-form MPS reader and writer.

Sections are expected in the order NAME, ROWS, COLUMNS, RHS, [RANGES],
[BOUNDS], ENDATA.  Fields are read free-form (whitespace separated); the
classic fixed column positions are a special case of that, so both styles
parse.  Comment lines starting with '*' and blank lines are skipped.

Each line is split once.  COLUMNS, RHS, RANGES and BOUNDS, most of a file,
are read in two stages.  While a section is read, each line's tokens are
appended to a few flat lists, one item per entry (column, row and value
strings for COLUMNS, kind, column and value for BOUNDS), with no check and
no tuple per entry.  When the section ends, it is checked at once with set
algebra over its names and one ``map(float, ...)`` over its values, and
only then are its entries built.  ROWS is checked line by line.

Errors name the first offender in file order, with the class and message
of a line-by-line check.  A section is checked before anything on the line
after it can raise, and a data line with a bad token count is reported
only after the entries before it pass.  Only when a section fails its
checks does a walk over its entries, in file order and with the per-line
checks, find the error to raise; a valid file never runs it.

``parse_mps`` and ``read_mps`` split lines alike: ``\\n``, ``\\r\\n`` and
``\\r`` each end a line.  ``read_mps`` reads files as ASCII, so a byte
outside it (say, a latin-1 letter in a comment) becomes U+FFFD instead of
stopping the read.

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
_FOUR_TOKEN_KINDS = frozenset(("UP", "LO", "FX"))  # the valued kinds, as a four-token line spells them
_NO_OWNER = object()  # the owner before a section's first data line, unequal to any token or None
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


def _floats(tokens):
    """``list(map(float, tokens))``, or None if some token does not parse."""
    try:
        return list(map(float, tokens))
    except ValueError:
        return None


def _pair_repeats(cols, rows, starts):
    """Whether a (column, row) pair repeats in COLUMNS entries whose blocks start at ``starts``.

    Where each column has one block, a pair can repeat only within a block,
    and small per-block sets hold less at once than one set of all pairs.
    """
    if len(set(map(cols.__getitem__, starts))) == len(starts):
        return not all(len(set(rows[a:b])) == b - a for a, b in zip(starts, starts[1:] + [len(rows)]))
    return len(set(zip(cols, rows))) < len(rows)


def _admits(kind, value):
    return BOUND_KINDS[kind].admits(value)


class _Split(NamedTuple):
    """A data section's tokens, one flat list per field with one item per entry, and how it ended.

    ``end`` is the header line that ends the section as (lineno, line,
    tokens), or (the last line number, None, None) at the end of the input.
    ``bad`` is (lineno, line without its newline, tokens) of a data line the
    section cannot take; it ends the section too.  ``marks`` place the
    entries on their lines, as ``entry_lines`` reads them.
    """

    fields: tuple
    marks: list
    bad: tuple | None
    end: tuple

    def entry_lines(self):
        """The line of each entry: from a mark (k, line), entry k is on ``line`` and the next ones one per line.

        A section's first mark is its first line; a skipped line, and each
        pair of a line with more than one, adds a mark.
        """
        lines, marks = [], self.marks + [(len(self.fields[0]), 0)]
        for (k, line), (k_next, _) in zip(marks, marks[1:]):
            lines.extend(range(line, line + k_next - k))
        return lines


def _split_pairs(lines, lineno, set_name):
    """Split a COLUMNS section, or with ``set_name`` an RHS or RANGES one, into owner, row and value lists.

    A COLUMNS line is a column and its row/value pairs; an RHS or RANGES line
    is its pairs, led by a set name when its token count is odd.  A pair's
    owner is its column or set name (None without one).  A run of lines
    with the same owner is a block; ``starts`` holds the index of each
    block's first entry, and every entry of a block stores the string of
    its first line, so a column's entries share one string, as they did
    when checked line by line.  A line with a bad token count is ``bad``.
    """
    owners, rows, vals, starts = [], [], [], []
    marks = [(0, lineno + 1)]
    owner, bad, end = _NO_OWNER, None, None
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) == 3 and line[0].isspace():
            if tokens[0] != owner:
                if tokens[0][0] == "*":
                    marks.append((len(rows), lineno + 1))
                    continue
                owner = tokens[0]
                starts.append(len(rows))
            owners.append(owner)
            rows.append(tokens[1])
            vals.append(tokens[2])
            continue
        if not tokens or tokens[0][0] == "*":
            marks.append((len(rows), lineno + 1))
            continue
        if not line[0].isspace():
            end = lineno, line, tokens
            break
        ntok = len(tokens)
        if ntok == 1 or (ntok % 2 == 0 and not set_name):
            bad = lineno, line.rstrip("\n"), tokens
            break
        if (tokens[0] if ntok % 2 else None) != owner:
            owner = tokens[0] if ntok % 2 else None
            starts.append(len(rows))
        for t in range(ntok % 2, ntok, 2):
            marks.append((len(rows), lineno))
            owners.append(owner)
            rows.append(tokens[t])
            vals.append(tokens[t + 1])
        marks.append((len(rows), lineno + 1))
    return _Split((owners, rows, vals, starts), marks, bad, end or (lineno, None, None))


def _split_bounds(lines, lineno):
    """Split a BOUNDS section into kind, column and value lists, and the entries of valueless kinds.

    A four-token line whose kind is spelled UP, LO or FX is taken as it
    stands: kind, set name, column, value.  Any other line has its kind
    looked up to place its column and value.  A valueless kind stores the
    token "0", to be replaced by None once the section is built, and its
    entry's index.  A line whose kind or token count is wrong is ``bad``.
    """
    kinds, cols, vals, valueless = [], [], [], []
    marks = [(0, lineno + 1)]
    bad = end = None
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) == 4 and tokens[0] in _FOUR_TOKEN_KINDS and line[0].isspace():
            kinds.append(tokens[0])
            cols.append(tokens[2])
            vals.append(tokens[3])
            continue
        if not tokens or tokens[0][0] == "*":
            marks.append((len(kinds), lineno + 1))
            continue
        if not line[0].isspace():
            end = lineno, line, tokens
            break
        kind = tokens[0].upper()
        spec = BOUND_KINDS.get(kind)
        # kind [set-name] column, then the value of a valued kind
        if spec is None or len(tokens) - spec.valued not in (2, 3):
            bad = lineno, line.rstrip("\n"), tokens
            break
        if not spec.valued:
            valueless.append(len(kinds))
        kinds.append(kind)
        cols.append(tokens[-1 - spec.valued])
        vals.append(tokens[-1] if spec.valued else "0")
    return _Split((kinds, cols, vals, valueless), marks, bad, end or (lineno, None, None))


def _each_line(lines, lineno, handle):
    """Hand each data line of a section to ``handle(tokens, line without its newline, lineno)``.

    Returns how the section ended, as ``_Split.end``.
    """
    for lineno, line in lines:
        tokens = line.split()
        if not tokens or tokens[0][0] == "*":
            continue
        if not line[0].isspace():
            return lineno, line, tokens
        handle(tokens, line.rstrip("\n"), lineno)
    return lineno, None, None


def _outside(tokens, stripped, lineno):
    raise UnknownSection(f"data line outside any section: {stripped!r}", lineno)


class _Parser:
    """One parse: the RawMps so far, the names it has declared, and a reader per section.

    Each reader consumes its section's lines and returns the header line
    that ends it, as ``_Split.end``.
    """

    def __init__(self):
        self.raw = RawMps()
        self.row_names = set()
        self.col_names = set()  # filled when COLUMNS ends

    def parse(self, lines):
        raw, last = self.raw, -1
        lineno, line, tokens = _each_line(lines, 0, _outside)
        while line is not None:
            keyword = tokens[0].upper()
            if keyword not in _SECTION_ORDER:
                raise UnknownSection(f"unknown section {tokens[0]!r}", lineno)
            if _SECTION_ORDER.index(keyword) <= last:
                raise UnknownSection(f"section {keyword} out of order", lineno)
            last = _SECTION_ORDER.index(keyword)
            if keyword == "ENDATA":
                return raw
            if keyword == "NAME":
                raw.name = tokens[1] if len(tokens) > 1 else ""
                lineno, line, tokens = _each_line(lines, lineno, _outside)
            elif keyword == "ROWS":
                lineno, line, tokens = _each_line(lines, lineno, self.row)
            elif keyword == "COLUMNS":
                lineno, line, tokens = self.columns(_split_pairs(lines, lineno, set_name=False))
            elif keyword == "BOUNDS":
                lineno, line, tokens = self.bounds(_split_bounds(lines, lineno))
            else:
                dest = raw.rhs if keyword == "RHS" else raw.ranges
                lineno, line, tokens = self.vector(_split_pairs(lines, lineno, set_name=True), keyword, dest)
        raise MissingEndata("no ENDATA marker", lineno)

    def row(self, tokens, stripped, lineno):
        if len(tokens) != 2:
            raise UnknownRowKind(f"expected 'kind name', got {stripped!r}", lineno)
        kind, name = tokens[0].upper(), tokens[1]
        if kind not in ROW_KINDS:
            raise UnknownRowKind(f"unknown row kind {tokens[0]!r}", lineno)
        if name in self.row_names:
            raise DuplicateEntry(f"row {name!r} declared twice", lineno)
        self.row_names.add(name)
        self.raw.rows.append((name, kind))
        if kind == "N" and not self.raw.objective_row:
            self.raw.objective_row = name

    def columns(self, split):
        """Check a split COLUMNS section at once, then build ``raw.columns``; returns ``split.end``."""
        cols, rows, vals, starts = split.fields
        row_names = self.row_names
        values = _floats(vals)
        if (
            values is None
            or not row_names.issuperset(rows)
            or not row_names.isdisjoint(cols)
            or _pair_repeats(cols, rows, starts)
            or not all(map(math.isfinite, values))
        ):
            # the first error in file order, by the per-line checks: a column that
            # collides with a row, on the first line of its block; then, per pair,
            # an unknown row, a duplicate pair and the number
            col_rows, prev = {}, None
            for col, rname, token, lineno in zip(cols, rows, vals, split.entry_lines()):
                if col != prev:
                    prev = col
                    if col in row_names:
                        raise DuplicateEntry(f"column name {col!r} collides with a row", lineno)
                    rows_of_col = col_rows.setdefault(col, set())
                if rname not in row_names:
                    raise UndeclaredName(f"coefficient references unknown row {rname!r}", lineno)
                if rname in rows_of_col:
                    raise DuplicateEntry(f"duplicate coefficient ({col!r}, {rname!r})", lineno)
                rows_of_col.add(rname)
                _number(token, lineno)
        vals.clear()  # the value strings go before the triples are built
        self.raw.columns = list(zip(cols, rows, values))
        self.col_names = set(cols)
        if split.bad:
            # a column before it that collides with a row has failed the checks
            lineno, _, tokens = split.bad
            if tokens[0] in row_names:
                raise DuplicateEntry(f"column name {tokens[0]!r} collides with a row", lineno)
            raise MalformedNumber(f"expected row/value pairs after column {tokens[0]!r}", lineno)
        return split.end

    def vector(self, split, section, dest):
        """Check a split RHS or RANGES section at once, then append its (row, value) pairs to ``dest``."""
        _, rows, vals, _ = split.fields
        row_names = self.row_names
        values = _floats(vals)
        if (
            values is None
            or not row_names.issuperset(rows)
            or len(set(rows)) < len(rows)
            or not all(map(math.isfinite, values))
        ):
            # the first error in file order: per pair, an unknown row, a repeated row, the number
            seen = set()
            for rname, token, lineno in zip(rows, vals, split.entry_lines()):
                if rname not in row_names:
                    raise UndeclaredName(f"{section} references unknown row {rname!r}", lineno)
                if rname in seen:
                    raise DuplicateEntry(f"duplicate {section} entry for row {rname!r}", lineno)
                seen.add(rname)
                _number(token, lineno)
        dest.extend(zip(rows, values))
        if split.bad:
            lineno, stripped, _ = split.bad
            raise MalformedNumber(f"expected row/value pairs, got {stripped!r}", lineno)
        return split.end

    def bounds(self, split):
        """Check a split BOUNDS section at once, then build ``raw.bounds``; returns ``split.end``."""
        kinds, cols, vals, valueless = split.fields
        values = _floats(vals)
        if (
            values is None
            or not (all(map(math.isfinite, values)) or all(map(_admits, kinds, values)))
            or not self.col_names.issuperset(cols)
        ):
            # the first error in file order: per entry, its number, then its column
            for kind, col, token, lineno in zip(kinds, cols, vals, split.entry_lines()):
                _number(token, lineno, BOUND_KINDS[kind].admits)
                if col not in self.col_names:
                    raise UndeclaredName(f"bound references unknown column {col!r}", lineno)
        bounds = self.raw.bounds = list(zip(kinds, cols, values))
        for k in valueless:
            bounds[k] = (kinds[k], cols[k], None)
        if split.bad:
            lineno, stripped, tokens = split.bad
            kind = tokens[0].upper()
            if kind in _INTEGER_BOUNDS:
                raise UnknownBoundKind(
                    f"integer bound kind {kind!r} is not supported (continuous LPs only)", lineno
                )
            if kind not in BOUND_KINDS:
                raise UnknownBoundKind(f"unknown bound kind {tokens[0]!r}", lineno)
            raise MalformedNumber(f"malformed bound line {stripped!r}", lineno)
        return split.end


def parse_mps(source) -> RawMps:
    """Parse an MPS document from a string, bytes, or readable stream.

    A string or bytes is split into lines as ``read_mps`` splits a file:
    ``\\n``, ``\\r\\n`` and ``\\r`` each end a line.
    """
    if isinstance(source, bytes):
        source = source.decode("ascii", errors="replace")
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    return _Parser().parse(enumerate(source, start=1))


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
