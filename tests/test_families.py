import csv
import dataclasses
import hashlib
import os

import numpy as np
import pytest

from galp.model import to_standard_form
from galp.mps import read_mps
from galp.solver import Status, solve

from conftest import DATA, NETLIB_OPTIMA
from families import HELD_OUT, NAMED, PANEL, lp_bytes, solve_bytes


def test_generated_instances_match_pinned_digests():
    # the MPS text of every generated member, regenerated; it depends on no
    # BLAS kernel, so unlike sweep_cells.csv this pin holds on any machine
    rows = [["family", "seed", "sha256"]] + [
        [family.name, str(member.seed), hashlib.sha256(member.text.encode("ascii")).hexdigest()]
        for family in (*PANEL.values(), *HELD_OUT.values())
        for member in family.members
        if member.seed is not None
    ]
    with open(os.path.join(DATA, "family_digests.csv"), newline="") as fh:
        assert rows == list(csv.reader(fh))


@pytest.mark.parametrize(
    "member", PANEL["corpus"].members + PANEL["fixtures"].members, ids=lambda member: member.name
)
def test_file_member_is_its_file_read_and_converted(member):
    # the tests load a corpus or fixture LP only through its member, so each
    # member must give what galp's reader and converter give for its file
    assert member.raw() == read_mps(member.path)
    assert lp_bytes(member.lp()) == lp_bytes(to_standard_form(read_mps(member.path))[0])


@pytest.mark.parametrize("member", PANEL["corpus"].members, ids=lambda member: member.name)
def test_corpus_member_matches_its_published_optimum(member):
    # conftest.NETLIB_OPTIMA decides perfbench's netlib-sweep ok_frac; HiGHS
    # on the standard form, plus the form's objective offset, must agree
    offset = to_standard_form(member.raw())[1].offset
    published = NETLIB_OPTIMA[member.name]
    assert abs(member.highs + offset - published) <= 1e-9 * (1.0 + abs(published))


def _with(array, value, k=None):
    """A copy of ``array`` with ``value`` at k, by default at its first +0.0."""
    out = array.copy()
    out[np.flatnonzero((array == 0.0) & ~np.signbit(array))[0] if k is None else k] = value
    return out


def _switched(record):
    """``record`` with the type of its objective switched between float and np.float64."""
    value = record.objective
    return dataclasses.replace(record, objective=float(value) if type(value) is np.float64 else np.float64(value))


SOLVE_EDITS = {
    "w-zero-to-negative-zero": lambda rep: {"w": _with(rep.w, -0.0)},
    "trace-field-type": lambda rep: {"trace": rep.trace[:-1] + [_switched(rep.trace[-1])]},
    "status": lambda rep: {"status": Status.ITERATION_LIMIT},
    "last-record-dropped": lambda rep: {"trace": rep.trace[:-1]},
    "y-one-ulp": lambda rep: {"y": _with(rep.y, np.nextafter(rep.y[0], np.inf), 0)},
}


@pytest.mark.parametrize("edit", SOLVE_EDITS)
def test_solve_bytes_sees_every_edit(edit):
    # the shared comparison of two solves is strict: each of these edits to one afiro report changes it
    if edit == "trace-field-type" and np.lib.NumpyVersion(np.__version__) < "2.0.0":
        pytest.skip("numpy 1 reprs np.float64 as it reprs float")
    report = solve(NAMED["afiro"].lp())
    assert report.status == Status.OPTIMAL
    assert solve_bytes(dataclasses.replace(report, **SOLVE_EDITS[edit](report))) != solve_bytes(report)


@pytest.mark.parametrize("edit", ["indices-dtype", "c-zero-to-negative-zero"])
def test_lp_bytes_sees_every_edit(edit):
    # so is the comparison of two LPs: int32 against int64 indices, and -0.0 against +0.0
    lp, edited = NAMED["afiro"].lp(), NAMED["afiro"].lp()
    if edit == "indices-dtype":
        edited.A.indices = lp.A.indices.astype(np.int64 if lp.A.indices.dtype == np.int32 else np.int32)
    else:
        edited.c = _with(lp.c, -0.0)
    assert lp_bytes(edited) != lp_bytes(lp)
