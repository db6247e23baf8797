"""The benchmark's own checks pass against this tree.

``perfbench/selfcheck.py`` wraps every name in ``perfbench/tracing.BINDINGS``;
a refactor that unbinds one of them breaks ``perfbench/run.py --trace 1``, and
fails here first.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selfcheck.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
