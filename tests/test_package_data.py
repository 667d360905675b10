"""The built package carries its data files: the ``thm2`` tables, which
the one-turn intersection curve loads and never builds, and ``_draw.c``,
which the sampler compiles on a machine's first draw.

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
DATA = [TABLES, Path("linecox", "_draw.c")]


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
    """And ``_draw.c``, byte for byte, as every data file."""
    _setup(tmp_path, "build_py", "--build-lib", "out")
    for path in DATA:
        assert (tmp_path / "out" / path).read_bytes() == (ROOT / "src" / path).read_bytes()


def test_the_sdist_ships_the_thm2_tables(tmp_path):
    """And ``_draw.c``, byte for byte, as every data file."""
    _setup(tmp_path, "sdist", "--dist-dir", "out")
    (archive,) = (tmp_path / "out").glob("linecox-*.tar.gz")
    with tarfile.open(archive) as sdist:
        for path in DATA:
            member = sdist.extractfile(
                f"{archive.name[:-len('.tar.gz')]}/src/{path.as_posix()}")
            assert member.read() == (ROOT / "src" / path).read_bytes()
