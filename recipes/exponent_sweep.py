"""
Sweeping the penalty exponent
=============================

Iteration counts as a function of r on the benchmark corpus.  Every one
of the 40 cells ends Optimal within 1e-6 (1 + |f*|) of HiGHS's optimum f*.
Summed over the five problems, r = 0, 0.1, ..., 0.7 take 104, 101, 100,
101, 102, 105, 114 and 122 iterations: the fewest near r = 0.2, and more
from r = 0.5 on, most of it on adlittle and blend.  The same sweep is
available from the command line:

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
