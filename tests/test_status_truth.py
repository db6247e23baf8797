"""Every status galp reports is true: checked against HiGHS on seeded families
that no solver setting was tuned on."""

from galp.model import to_standard_form
from galp.mps import parse_mps
from galp.solver import SolverConfig, Status, solve

from conftest import load_perfbench_gen


def test_box_heavy_held_out_seeds_are_optimal_and_true():
    # perfbench's box-heavy shape (every column boxed) at seeds 6-11, which
    # the benchmark's panel (seeds 0-5) does not use; one LP per seed serves
    # its three r, as repeated solves of one LP do
    gen = load_perfbench_gen()
    shape = gen.Shape(m=200, n=600, density=0.02, boxed=True)
    wrong = []
    for seed in range(6, 12):
        inst = gen.generate(seed, shape, f"box_heavy_{seed}")
        reference = gen.highs_reference(inst)
        lp = to_standard_form(parse_mps(inst.mps_text()))[0]
        for r in (0.0, 0.2, 0.5):
            report = solve(lp, SolverConfig(r=r))
            error = abs(report.objective - reference) / (1.0 + abs(reference))
            if report.status != Status.OPTIMAL or not error <= 1e-6:
                wrong.append((seed, r, report.status.value, report.iterations, error))
    assert wrong == []
