"""
Reading an MPS file
===================

Parse a fixed-format-free MPS file, look at what the parser recorded, and
round-trip it through the writer.
"""

import os

from galp import parse_mps, write_mps

HERE = os.path.dirname(__file__)

text = """NAME          DIET
ROWS
 N  COST
 G  PROTEIN
 L  BUDGET
COLUMNS
    BREAD  COST  2.0  PROTEIN  4.0
    BREAD  BUDGET  2.0
    MILK   COST  3.5  PROTEIN  8.0
    MILK   BUDGET  3.5
RHS
    RHS  PROTEIN  24.0  BUDGET  20.0
BOUNDS
 UP BND  MILK  3.0
ENDATA
"""

raw = parse_mps(text)

print("problem name:", raw.name)
print("objective row:", raw.objective_row)
print("rows:", raw.rows)
print("columns:", raw.column_names())
# COLUMNS is kept as three parallel lists: coefficient k is coef_values[k]
# at row coef_rows[k] of column coef_cols[k]
print("coefficient columns:", raw.coef_cols)
print("coefficient rows:", raw.coef_rows)
print("coefficient values:", raw.coef_values)
print("rhs:", raw.rhs)
print("bounds:", raw.bounds)

# the writer emits full-precision values, so parse(write(raw)) == raw
assert parse_mps(write_mps(raw)) == raw
print("round trip: exact")

# a real instance from the benchmark corpus
from galp import read_mps

afiro = read_mps(os.path.join(HERE, "..", "tests", "data", "netlib", "afiro.mps"))
print(f"\nafiro: {len(afiro.rows)} rows, {len(afiro.column_names())} columns")
