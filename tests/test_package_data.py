"""The built package carries the ``thm2`` tables, which the one-turn
intersection curve loads and never builds.

``setup.py build_py`` is the step of a wheel build that copies the
package's modules and data files, and ``setup.py sdist`` builds the source
archive; neither needs a network, so each runs, with the installed
setuptools, on a copy of the project's sources, and the test reads what
it wrote."""

import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLES = Path("linecox", "analytic", "_thm2_tables.npz")


def _setup(tmp_path, *command):
    """Runs ``setup.py command`` on a copy of pyproject.toml, README.md and
    src/ in tmp_path."""
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                    *command], cwd=tmp_path, check=True, capture_output=True, timeout=120)


def test_build_py_ships_the_thm2_tables(tmp_path):
    _setup(tmp_path, "build_py", "--build-lib", "out")
    assert (tmp_path / "out" / TABLES).read_bytes() == (ROOT / "src" / TABLES).read_bytes()


def test_the_sdist_ships_the_thm2_tables(tmp_path):
    _setup(tmp_path, "sdist", "--dist-dir", "out")
    (archive,) = (tmp_path / "out").glob("linecox-*.tar.gz")
    with tarfile.open(archive) as sdist:
        member = sdist.extractfile(f"{archive.name[:-len('.tar.gz')]}/src/{TABLES.as_posix()}")
        assert member.read() == (ROOT / "src" / TABLES).read_bytes()
