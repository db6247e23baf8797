"""Every recipe under recipes/ runs to completion against the current API,
under the suite's own warning policy: a RuntimeWarning is an error."""

import glob
import os
import subprocess
import sys

import pytest

import galp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECIPES = sorted(glob.glob(os.path.join(ROOT, "recipes", "*.py")))


def test_recipes_found():
    assert RECIPES


@pytest.mark.parametrize("path", RECIPES, ids=os.path.basename)
def test_recipe_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(galp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", path],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
