"""Print one sha256 over the iterates of a fixed panel of solves.

The panel is 126 solves, each on a freshly read LP: the 5 corpus files in
tests/data/netlib, in file-name order, at the 8-value r grid, the 20
fixtures fix01-fix20 at r 0, 0.2 and 0.5, the sparse-large instances of
seeds 0-3 at r 0 and 0.5, and the box-heavy instances of seeds 0-5 at r 0,
0.2 and 0.5 (both built by perfbench/gen.py in the shapes of
perfbench/workloads.py).  Each solve adds
to the hash, in that order, its status value, the repr of the list of its
trace records as ``dataclasses.astuple``, and then the bytes of x, y, w and
s.

A change that claims bit-identical iterates prints the same digest as its
parent.  The digest depends on the BLAS build, on the kernel that build
picks for the CPU and on its thread count, so the script runs OpenBLAS on
one thread, as perfbench does, and two trees are compared on one machine;
the digest is not a constant to pin.  numpy and scipy each bundle their own
OpenBLAS, and scipy's runs the Cholesky (``dpotrf``, ``dpotrs``, ``dsyrk``),
so before any solve one stderr line per copy gives its kernel and version,
as ``numpy openblas: kernel NAME, version V`` and ``scipy openblas: kernel
NAME, version V, runs the factor`` (``unknown`` where a copy cannot be
queried).

Usage: python tools/iterate_hash.py [--limit N]
``--limit N`` hashes only the first N solves of the panel; ``--limit 0``
only reports the two OpenBLAS copies.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS, below

from galp.cli import R_GRID  # noqa: E402
from galp.model import to_standard_form  # noqa: E402
from galp.mps import parse_mps, read_mps  # noqa: E402
from galp.solver import SolverConfig, solve  # noqa: E402

FIXTURE_GRID = (0.0, 0.2, 0.5)


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def panel():
    """(label, thunk returning a RawMps, r grid), in hashing order."""
    data = os.path.join(ROOT, "tests", "data")
    netlib = os.path.join(data, "netlib")
    for name in sorted(f for f in os.listdir(netlib) if f.endswith(".mps")):
        yield name[:-4], lambda p=os.path.join(netlib, name): read_mps(p), R_GRID
    for k in range(1, 21):
        yield f"fix{k:02d}", lambda p=os.path.join(data, "fixtures", f"fix{k:02d}.mps"): read_mps(p), FIXTURE_GRID
    gen = _load_gen()
    families = (
        ("sparse_large", gen.Shape(m=600, n=1800, density=0.01, boxed=False), range(4), (0.0, 0.5)),
        ("box_heavy", gen.Shape(m=200, n=600, density=0.02, boxed=True), range(6), (0.0, 0.2, 0.5)),
    )
    for family, shape, seeds, grid in families:
        for seed in seeds:
            label = f"{family}_{seed}"
            yield label, lambda s=seed, sh=shape, lb=label: parse_mps(gen.generate(s, sh, lb).mps_text()), grid


def _openblas_string(lib, name):
    """The string ``openblas_get_<name>`` returns under any of its exported spellings, or None."""
    for spelling in ("scipy_openblas_get_{}64_", "openblas_get_{}64_", "scipy_openblas_get_{}", "openblas_get_{}"):
        fn = getattr(lib, spelling.format(name), None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            fn.argtypes = []
            return fn().decode()
    return None


def openblas_builds():
    """(package, kernel, version) of the OpenBLAS that numpy and that scipy bundle, "unknown" where not found."""
    import numpy as np
    import scipy

    for module in (np, scipy):
        kernel = version = "unknown"
        libdir = os.path.join(os.path.dirname(module.__file__), os.pardir, f"{module.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            kernel = _openblas_string(lib, "corename") or kernel
            config = _openblas_string(lib, "config")  # "OpenBLAS 0.3.30 DYNAMIC_ARCH ..."
            version = config.split()[1] if config else version
        yield module.__name__, kernel, version


def iterate_hash(limit=None):
    """(hex digest, number of solves hashed) over the first ``limit`` solves of the panel."""
    digest = hashlib.sha256()
    count = 0
    for _, read, grid in panel():
        raw = None
        for r in grid:
            if limit is not None and count >= limit:
                return digest.hexdigest(), count
            raw = raw if raw is not None else read()
            report = solve(to_standard_form(raw)[0], SolverConfig(r=r))
            digest.update(report.status.value.encode())
            digest.update(repr([dataclasses.astuple(t) for t in report.trace]).encode())
            for field in ("x", "y", "w", "s"):
                digest.update(getattr(report, field).tobytes())
            count += 1
    return digest.hexdigest(), count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=None, help="hash only the first N solves")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be nonnegative")
    for package, kernel, version in openblas_builds():
        runs = ", runs the factor" if package == "scipy" else ""
        print(f"{package} openblas: kernel {kernel}, version {version}{runs}", file=sys.stderr)
    hexdigest, count = iterate_hash(args.limit)
    print(f"{hexdigest}  {count} solves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
