"""galp.mps.parse_mps against the per-line reader it replaced (tests/mps_oracle.py).

Every registry LP, every malformed fixture and seeded single-edit mutations
of a few texts must give the oracle's RawMps, or its exception class and
message.  The reader must also split lines the same way from every source,
and name the first offender in file order whatever the string hash order.
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

from galp.mps import MpsError, parse_mps, read_mps

from mps_oracle import parse_mps as oracle
from families import FIXTURES, HELD_OUT, NAMED, PANEL, ROOT
from test_mps import PAIRS, TINY

MALFORMED = sorted(name for name in os.listdir(FIXTURES) if not name.startswith("fix"))


def outcome(parse, source):
    """What ``parse(source)`` gives: ("ok", RawMps) or ("error", class, message)."""
    try:
        return "ok", parse(source)
    except MpsError as err:
        return "error", type(err), str(err)


# every registry member; NAMED holds PANEL's corpus and fixtures members
REGISTRY = {
    f"{family.name}/{member.name}": member
    for families in (PANEL, HELD_OUT)
    for family in families.values()
    for member in family.members
}


@pytest.mark.parametrize("member", REGISTRY.values(), ids=list(REGISTRY))
def test_registry_member_matches_oracle(member):
    got = outcome(parse_mps, member.text)
    assert got[0] == "ok"
    assert got == outcome(oracle, member.text)


@pytest.mark.parametrize("fixture", MALFORMED)
def test_malformed_fixture_matches_oracle(fixture):
    path = os.path.join(FIXTURES, fixture)
    got = outcome(read_mps, path)
    assert got[0] == "error"
    with open(path, encoding="ascii", errors="replace") as fh:
        assert got == outcome(oracle, fh)


# TINY with RANGES and every bound kind, valued and valueless, with and without a set name
BOUNDED = TINY.replace("ENDATA", """RANGES
    RNG  R1  2.0
BOUNDS
 UP BND  X1  4.0
 lo BND  X1  -1.5
 MI X2
 FX X2  3.0
 FR BND  X1
 PL BND  X2
ENDATA""")
TEXTS = {
    "TINY": (TINY, 150),
    "PAIRS": (PAIRS.format(line7="    X1  R1  1.5  R2  -2.0", line9="    X1  COST  3.0"), 150),
    "BOUNDED": (BOUNDED, 150),
    **{name: (NAMED[name].text, 80) for name in ("afiro", "sc50a", "sc50b", "adlittle", "blend", "fix01", "fix05")},
    "box_heavy_0": (PANEL["box_heavy"].members[0].text, 50),
}


def _number_like(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _pick(rng, lines, keep):
    """A random index of a line that ``keep(tokens, line)`` accepts, or None."""
    where = [k for k, line in enumerate(lines) if keep(line.split(), line)]
    return where[rng.integers(len(where))] if where else None


def _data(tokens, line):
    return bool(tokens) and line[0].isspace() and tokens[0][0] != "*"


def _three(tokens, line):
    return _data(tokens, line) and len(tokens) == 3


def mutate(text, rng):
    """``text`` after one seeded edit, and the edit's name."""
    lines = text.splitlines()
    rows = [line.split()[1] for line in lines[lines.index("ROWS") + 1:lines.index("COLUMNS")]]
    edit = EDITS[rng.integers(len(EDITS))]
    if edit == "drop-token":
        k = _pick(rng, lines, lambda tokens, line: bool(tokens))
        tokens = lines[k].split()
        del tokens[rng.integers(len(tokens))]
        lines[k] = (" " if lines[k][0].isspace() else "") + "  ".join(tokens)
    elif edit == "duplicate-line":
        k = _pick(rng, lines, lambda tokens, line: True)
        lines.insert(k, lines[k])
    elif edit.startswith("number-"):
        k = _pick(rng, lines, lambda tokens, line: _data(tokens, line) and any(map(_number_like, tokens)))
        if k is not None:
            tokens = lines[k].split()
            t = [i for i, token in enumerate(tokens) if _number_like(token)][-1]
            tokens[t] = edit[len("number-"):]
            lines[k] = "    " + "  ".join(tokens)
    elif edit in ("row-undeclared", "row-repeated", "column-is-row"):
        start, end = lines.index("COLUMNS"), lines.index("RHS")
        k = _pick(rng, lines[start:end], _three)
        if k is not None:
            k += start
            tokens = lines[k].split()
            if edit == "row-undeclared":
                tokens[1] = "NOROW"
            elif edit == "row-repeated":
                before = [lines[j].split() for j in range(start + 1, k)]
                same = [t[1] for t in before if len(t) == 3 and t[0] == tokens[0]]
                tokens[1] = same[rng.integers(len(same))] if same else tokens[1]
            else:
                tokens[0] = rows[rng.integers(len(rows))]
            lines[k] = "    " + "  ".join(tokens)
    elif edit in ("comment", "indented-comment", "blank"):
        k = int(rng.integers(len(lines) + 1))
        lines.insert(k, {"comment": "* a comment", "indented-comment": "   * a b", "blank": ""}[edit])
    elif edit == "merge-lines":
        k = _pick(rng, lines[:-1], lambda tokens, line: _three(tokens, line))
        if k is not None and _three(lines[k + 1].split(), lines[k + 1]):
            lines[k:k + 2] = [lines[k] + "  " + "  ".join(lines[k + 1].split()[1:])]
    elif edit == "move-header":
        k = _pick(rng, lines, lambda tokens, line: bool(tokens) and not line[0].isspace())
        header = lines.pop(k)
        lines.insert(int(rng.integers(len(lines) + 1)), header)
    elif edit == "bound-kind":
        k = _pick(rng, lines, lambda tokens, line: _data(tokens, line) and tokens[0].upper() in ("UP", "LO", "FX", "FR", "MI", "PL"))
        if k is not None:
            tokens = lines[k].split()
            tokens[0] = ("BV", "XX", "up", "MI", "FX", "fr")[rng.integers(6)]
            lines[k] = " " + "  ".join(tokens)
    return "\n".join(lines) + "\n", edit


EDITS = (
    "drop-token", "duplicate-line", "number-nan", "number-1e999", "number-1.O",
    "row-undeclared", "row-repeated", "column-is-row", "comment", "indented-comment", "blank",
    "merge-lines", "move-header", "bound-kind",
)


def test_mutations_match_oracle():
    """At least 1000 seeded one-edit mutations give the oracle's result, and reach every outcome."""
    seen, count = set(), 0
    for seed, (name, (text, times)) in enumerate(TEXTS.items()):
        rng = np.random.default_rng(seed)
        for k in range(times):
            mutant, edit = mutate(text, rng)
            got = outcome(parse_mps, mutant)
            want = outcome(oracle, mutant)
            assert got == want, f"{name} mutation {k} ({edit}):\n{mutant}"
            seen.add(got[0] if got[0] == "ok" else got[1].__name__)
            count += 1
    assert count >= 1000
    assert seen == {
        "ok", "UnknownSection", "UnknownRowKind", "UnknownBoundKind", "UndeclaredName",
        "DuplicateEntry", "MissingEndata", "MalformedNumber",
    }


@pytest.mark.parametrize("skipped", ["* c", "   * a b", "   * a b c d", ""], ids=["comment", "indented-3", "indented-5", "blank"])
@pytest.mark.parametrize(
    "section, bad",
    [("COLUMNS", "    X3  R1  nan"), ("RHS", "    RHS  COST  nan"), ("RANGES", "    RNG  COST  nan"), ("BOUNDS", " LO BND  X2  nan")],
)
def test_skipped_lines_keep_error_lines(skipped, section, bad):
    """A comment or blank line before a section's bad entry moves the line its error names."""
    lines = BOUNDED.splitlines()
    start = lines.index(section)
    end = next(k for k in range(start + 1, len(lines)) if not lines[k][0].isspace())
    lines[end:end] = [skipped, bad]
    lines.insert(start + 1, skipped)
    text = "\n".join(lines) + "\n"
    got = outcome(parse_mps, text)
    assert got == outcome(oracle, text)
    assert got[2] == f"line {end + 3}: non-finite number 'nan'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("text", [TINY, TINY.replace(" E  R1", " E  R1 extra")], ids=["valid", "bad-row"])
def test_every_source_splits_lines_alike(tmp_path, newline, text):
    text = text.replace("\n", newline)
    path = tmp_path / "tiny.mps"
    path.write_bytes(text.encode("ascii"))
    with open(path, "rb") as fh:
        sources = [text, text.encode("ascii"), io.BytesIO(text.encode("ascii")), fh]
        results = [outcome(read_mps, path)] + [outcome(parse_mps, source) for source in sources]
    assert results == [outcome(parse_mps, text.replace(newline, "\n"))] * 5


HASH_PROBE = """
import sys
from galp.mps import MpsError, parse_mps
for text in sys.stdin.read().split("@@"):
    try:
        parse_mps(text)
    except MpsError as err:
        print(err)
"""


def test_first_offender_is_named_whatever_the_hash_order():
    """Several unknown rows, then several duplicate pairs, on different lines of one COLUMNS section."""
    head = "NAME H\nROWS\n N  COST\n" + "".join(f" E  R{i}\n" for i in range(8)) + "COLUMNS\n"
    unknown = head + "".join(f"    X{i}  Q{7 - i}  1.0\n" for i in range(8)) + "RHS\nENDATA\n"
    duplicate = head + "".join(f"    X  R{i}  1.0\n    X  R{i}  2.0\n" for i in range(8)) + "RHS\nENDATA\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    for seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-c", HASH_PROBE], input=unknown + "@@" + duplicate,
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines() == [
            "line 13: coefficient references unknown row 'Q7'",
            "line 14: duplicate coefficient ('X', 'R0')",
        ]
