"""The scripts under tools/ run against the current tree."""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys

from galp.cli import R_GRID
from galp.solver import SolverConfig, solve

from families import NAMED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_iterate_hash_smoke():
    # the first two solves of the panel are the first corpus file in name
    # order, adlittle, at the first two r of the grid; the digest itself
    # depends on the BLAS build, so it is recomputed here rather than pinned
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", os.path.join("tools", "iterate_hash.py"), "--limit", "2"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    match = re.fullmatch(r"([0-9a-f]{64})  2 solves\n", proc.stdout)
    assert match, proc.stdout
    # the OpenBLAS copies the digest was made on, before any solve: numpy's,
    # and scipy's, which runs the factor; then one digest per family, where
    # both solves are the corpus's and the other families hashed none
    empty = hashlib.sha256().hexdigest()
    families = re.fullmatch(
        r"numpy openblas: kernel \S+, version \S+\n"
        r"scipy openblas: kernel \S+, version \S+, runs the factor\n"
        r"corpus: ([0-9a-f]{64})  2 solves\n"
        rf"fixtures: {empty}  0 solves\n"
        rf"sparse_large: {empty}  0 solves\n"
        rf"box_heavy: {empty}  0 solves\n",
        proc.stderr,
    )
    assert families, proc.stderr
    assert families.group(1) == match.group(1)
    digest = hashlib.sha256()
    for r in R_GRID[:2]:
        report = solve(NAMED["adlittle"].lp(), SolverConfig(r=r))
        digest.update(report.status.value.encode())
        digest.update(repr([dataclasses.astuple(t) for t in report.trace]).encode())
        for field in ("x", "y", "w", "s"):
            digest.update(getattr(report, field).tobytes())
    assert match.group(1) == digest.hexdigest()


def test_make_fixtures_writes_the_committed_fixtures(tmp_path):
    # tools/make_fixtures.py is the provenance of tests/data/fixtures: run
    # afresh, it writes the same 30 files, byte for byte
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "make_fixtures.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    committed = os.path.join(ROOT, "tests", "data", "fixtures")
    names = sorted(os.listdir(committed))
    assert len(names) == 30 and sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(committed, name), "rb") as want:
            assert (tmp_path / name).read_bytes() == want.read(), name
