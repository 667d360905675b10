"""Every script under demos/ runs as its README line says: a fresh
interpreter with the package on PYTHONPATH, exit 0 and nothing on stderr.

Budget: the five demos took 3.1, 0.5, 1.1, 0.8 and 1.3 s (angle_law,
applications_tour, intersection_bounds, one_turn_point, two_turn_bound),
about 7 s together on a 2-core machine; the README promises a minute or
less each, which the timeout holds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5  # a wrong path would parametrize nothing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
