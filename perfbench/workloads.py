"""The benchmark's workloads: which MPS files, which r grid, which references.

Each workload is a fixed panel of problems crossed with an r grid.  The
panels do not depend on the run's ``--seed``: correctness fractions on
``box-heavy`` swing by tens of percent from one random instance to the next,
so a seed-dependent panel would make ``ok_frac`` unusable as a gate.  The
seed sets the closed loop's visiting order instead (see ``harness.py``).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

from calibrate import LARGE, SMALL, Kernel
from gen import Shape, generate, highs_reference


class WorkloadError(Exception):
    """The workload's inputs or references are missing or malformed."""


@dataclass
class Workload:
    name: str
    directory: str  # holds exactly the workload's .mps files
    files: list  # sorted paths
    references: dict  # problem name -> optimal objective (None if missing)
    r_grid: tuple
    kernel: Kernel  # the calibration kernel at this workload's problem scale

    def problem(self, path) -> str:
        return os.path.splitext(os.path.basename(path))[0]


NETLIB_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
SPARSE_LARGE = Shape(m=600, n=1800, density=0.01, boxed=False)
SPARSE_LARGE_SEEDS = (0, 1, 2, 3)
SPARSE_LARGE_GRID = (0.0, 0.5)
BOX_HEAVY = Shape(m=200, n=600, density=0.02, boxed=True)
BOX_HEAVY_SEEDS = (0, 1, 2, 3, 4, 5)
BOX_HEAVY_GRID = (0.0, 0.2, 0.5)


def _mps_files(directory):
    return sorted(os.path.join(directory, f) for f in os.listdir(directory) if f.lower().endswith(".mps"))


def pinned_netlib_optima(conftest_path) -> dict:
    """NETLIB_OPTIMA from tests/conftest.py, read without importing pytest."""
    with open(conftest_path) as fh:
        tree = ast.parse(fh.read(), conftest_path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "NETLIB_OPTIMA" for t in node.targets
        ):
            return {k: float(v) for k, v in ast.literal_eval(node.value).items()}
    raise WorkloadError(f"{conftest_path} defines no NETLIB_OPTIMA")


def netlib_sweep(root, workdir) -> Workload:
    directory = os.path.join(root, "tests", "data", "netlib")
    conftest = os.path.join(root, "tests", "conftest.py")
    for path in (directory, conftest):
        if not os.path.exists(path):
            raise WorkloadError(f"netlib-sweep needs {os.path.relpath(path, root)}, which is missing")
    files = _mps_files(directory)
    if len(files) != 5:
        raise WorkloadError(f"netlib-sweep expects the 5 corpus files, found {len(files)} in {directory}")
    optima = pinned_netlib_optima(conftest)
    wl = Workload("netlib-sweep", directory, files, {}, NETLIB_GRID, SMALL)
    wl.references = {wl.problem(f): optima.get(wl.problem(f)) for f in files}
    return wl


def _generated(name, shape, seeds, grid, workdir) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    files, refs = [], {}
    for seed in seeds:
        inst = generate(seed, shape, f"{name.replace('-', '_')}_{seed}")
        path = os.path.join(workdir, f"{inst.name}.mps")
        with open(path, "w") as fh:
            fh.write(inst.mps_text())
        files.append(path)
        try:
            refs[inst.name] = highs_reference(inst)
        except RuntimeError:
            refs[inst.name] = None  # its solves are counted as failed, never dropped
    return Workload(name, workdir, sorted(files), refs, grid, LARGE)


def sparse_large(root, workdir) -> Workload:
    return _generated("sparse-large", SPARSE_LARGE, SPARSE_LARGE_SEEDS, SPARSE_LARGE_GRID, workdir)


def box_heavy(root, workdir) -> Workload:
    return _generated("box-heavy", BOX_HEAVY, BOX_HEAVY_SEEDS, BOX_HEAVY_GRID, workdir)


WORKLOADS = {"netlib-sweep": netlib_sweep, "sparse-large": sparse_large, "box-heavy": box_heavy}
