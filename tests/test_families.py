import csv
import hashlib
import os

from conftest import DATA
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
