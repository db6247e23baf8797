"""
Sweeping the penalty exponent
=============================

Iteration counts as a function of r on the benchmark corpus.  Small r tends
to be the most robust; large r trades robustness for occasionally faster
convergence.  The same sweep is available from the command line:

    galp bench tests/data/netlib --out table.csv
"""

import os

from galp import SolverConfig, read_mps, solve, to_standard_form
from galp.cli import R_GRID, STATUS_TABLE

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "tests", "data", "netlib")

names = sorted(os.path.splitext(f)[0] for f in os.listdir(CORPUS) if f.endswith(".mps"))

header = f"{'problem':10}" + "".join(f"  r={r:<4g}" for r in R_GRID)
print(header)
for name in names:
    lp, vmap = to_standard_form(read_mps(os.path.join(CORPUS, f"{name}.mps")))
    cells = []
    for r in R_GRID:
        report = solve(lp, SolverConfig(r=r), offset=vmap.offset)
        cells.append(STATUS_TABLE[report.status][1].format(report.iterations))  # galp bench's cell
    print(f"{name:10}" + "".join(f"  {c:>6}" for c in cells))
