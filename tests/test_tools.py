"""The scripts under tools/ run against the current tree."""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys

from galp.cli import R_GRID
from galp.model import to_standard_form
from galp.mps import read_mps
from galp.solver import SolverConfig, solve

from conftest import netlib_path

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
    raw = read_mps(netlib_path("adlittle"))
    for r in R_GRID[:2]:
        report = solve(to_standard_form(raw)[0], SolverConfig(r=r))
        digest.update(report.status.value.encode())
        digest.update(repr([dataclasses.astuple(t) for t in report.trace]).encode())
        for field in ("x", "y", "w", "s"):
            digest.update(getattr(report, field).tobytes())
    assert match.group(1) == digest.hexdigest()
