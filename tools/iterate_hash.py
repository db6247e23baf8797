"""Print one sha256 over the iterates of a fixed panel of solves.

The panel is ``PANEL`` in tests/families.py, 126 solves, each on a freshly
built LP: the 5 corpus files in tests/data/netlib, in file-name order, at
the 8-value r grid, the 20 fixtures fix01-fix20 at r 0, 0.2 and 0.5, the
sparse-large instances of seeds 0-3 at r 0 and 0.5, and the box-heavy
instances of seeds 0-5 at r 0, 0.2 and 0.5 (both in the shapes of
perfbench/workloads.py).  Each solve adds
to the hash, in that order, its status value, the repr of the list of its
trace records as ``dataclasses.astuple``, and then the bytes of x, y, w and
s.
After the solves, stderr gets one line per family, ``FAMILY: DIGEST  N
solves``, for corpus, fixtures, sparse_large and box_heavy in that order:
the same hash over that family's solves alone (over none, when ``--limit``
stops first), so a change that moves only one family shows which.

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
solves nothing, so of use only for its two OpenBLAS lines.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS, below

from families import PANEL  # noqa: E402
from galp.solver import SolverConfig, solve  # noqa: E402


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
    """(hex digest, number of solves hashed, {family: (hex digest, solves)}) over
    the first ``limit`` solves of the panel."""
    digest = hashlib.sha256()
    families = {family: [hashlib.sha256(), 0] for family in PANEL}
    cells = [
        (name, member, r)
        for name, family in PANEL.items()
        for member in family.members
        for r in family.grid
    ]
    count = 0
    for family, member, r in cells[:limit]:
        report = solve(member.lp(), SolverConfig(r=r))
        chunks = [report.status.value.encode(), repr([dataclasses.astuple(t) for t in report.trace]).encode()]
        chunks += [getattr(report, field).tobytes() for field in ("x", "y", "w", "s")]
        for chunk in chunks:
            digest.update(chunk)
            families[family][0].update(chunk)
        families[family][1] += 1
        count += 1
    return digest.hexdigest(), count, {family: (h.hexdigest(), k) for family, (h, k) in families.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=None, help="hash only the first N solves")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be nonnegative")
    for package, kernel, version in openblas_builds():
        runs = ", runs the factor" if package == "scipy" else ""
        print(f"{package} openblas: kernel {kernel}, version {version}{runs}", file=sys.stderr)
    hexdigest, count, families = iterate_hash(args.limit)
    print(f"{hexdigest}  {count} solves")
    for family, (family_digest, solves) in families.items():
        print(f"{family}: {family_digest}  {solves} solves", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
