"""The built package carries the ``thm2`` tables, which the one-turn
intersection curve loads and never builds.

``setup.py build_py`` is the step of a wheel or sdist build that copies the
package's modules and data files, and it needs no network, so this runs it
on a copy of the project's sources and reads what it copied."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_build_py_ships_the_thm2_tables(tmp_path):
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                    "build_py", "--build-lib", "out"],
                   cwd=tmp_path, check=True, capture_output=True, timeout=120)
    shipped = tmp_path / "out" / "linecox" / "analytic" / "_thm2_tables.npz"
    assert shipped.read_bytes() == (ROOT / "src" / "linecox" / "analytic"
                                    / "_thm2_tables.npz").read_bytes()
