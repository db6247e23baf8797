import csv
import hashlib
import os

import pytest

from galp.model import to_standard_form
from galp.mps import read_mps

from conftest import DATA, NETLIB_OPTIMA
from families import HELD_OUT, PANEL


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
    lp, ref = member.lp(), to_standard_form(read_mps(member.path))[0]
    assert lp.A.shape == ref.A.shape
    pairs = {
        "indptr": (lp.A.indptr, ref.A.indptr),
        "indices": (lp.A.indices, ref.A.indices),
        "data": (lp.A.data, ref.A.data),
        "b": (lp.b, ref.b),
        "c": (lp.c, ref.c),
        "upper": (lp.upper, ref.upper),
    }
    for name, (got, want) in pairs.items():
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("member", PANEL["corpus"].members, ids=lambda member: member.name)
def test_corpus_member_matches_its_published_optimum(member):
    # conftest.NETLIB_OPTIMA decides perfbench's netlib-sweep ok_frac; HiGHS
    # on the standard form, plus the form's objective offset, must agree
    offset = to_standard_form(member.raw())[1].offset
    published = NETLIB_OPTIMA[member.name]
    assert abs(member.highs + offset - published) <= 1e-9 * (1.0 + abs(published))
