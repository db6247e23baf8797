"""Every status galp reports is true: checked against HiGHS on seeded families
that no solver setting was tuned on.

The families, their seeds and r grid are ``HELD_OUT`` in tests/families.py.
Each family's iteration total over its cells is pinned at 1.25 times the
total measured when the family was added (``MEASURED``), so a change that
makes a family slower fails here as well as one that makes it wrong.  One
held-out family has no upper bounds, so the start of LPs without boxes is
gated too.
"""

import pytest

from galp.solver import SolverConfig, Status, solve

from families import HELD_OUT

# iterations over each family's members x grid when it was pinned; the
# parent of the start that clips boxed columns into [min(u/2, delta),
# u - min(u/2, delta)] took 1426 on box_heavy, 1264 on boxed_100x300, 260 on
# near_wall, 918 on far_wall, 484 on half_boxed and 621 on loose_big_m
MEASURED = {
    "box_heavy": 468,
    "boxed_100x300": 406,
    "near_wall": 229,
    "far_wall": 219,
    "half_boxed": 198,
    "loose_big_m": 221,
    # unboxed: x1 = n/||A_j|| lies wholly above x2 on every seed, so every
    # seed starts from x2; while x1 won on min x1 alone they took 533
    "unboxed_100x300": 402,
}
BOXED = tuple(f for f in MEASURED if f not in ("box_heavy", "unboxed_100x300"))


def check_family(name):
    """Every cell of ``name`` is Optimal within 1e-6 of HiGHS, in at most 1.25 times its measured iterations."""
    family = HELD_OUT[name]
    wrong, total = [], 0
    for member in family.members:
        lp = member.lp()  # one LP per member serves its grid, as repeated solves of one LP do
        for r in family.grid:
            report = solve(lp, SolverConfig(r=r))
            total += report.iterations
            error = abs(report.objective - member.highs) / (1.0 + abs(member.highs))
            if report.status != Status.OPTIMAL or not error <= 1e-6:
                wrong.append((member.seed, r, report.status.value, report.iterations, error))
    assert wrong == []
    assert total <= 1.25 * MEASURED[name], total


def test_box_heavy_held_out_seeds_are_optimal_and_true():
    check_family("box_heavy")


@pytest.mark.parametrize("family", BOXED)
def test_held_out_boxed_family_is_optimal_and_true(family):
    check_family(family)


def test_held_out_unboxed_family_is_optimal_and_true():
    check_family("unboxed_100x300")
