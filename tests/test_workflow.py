"""The CI workflow runs what ROADMAP.md names as the tier-1 command.

``.github/workflows/tier1.yml`` is read as text, since no YAML parser is a
test dependency: it must install the package with its test extra, run
ROADMAP's tier-1 command verbatim, test the lowest Python that
``pyproject.toml`` admits and the one after it, and bound its run time."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def _versions() -> list:
    match = re.search(r"python-version:\s*\[([^\]]*)\]", WORKFLOW)
    assert match, "no python-version matrix"
    return [tuple(map(int, v.split("."))) for v in re.findall(r"\d+\.\d+", match.group(1))]


def test_workflow_installs_the_test_extra():
    assert re.search(r"pip install (-e )?'?\.\[test\]'?", WORKFLOW)


def test_workflow_runs_the_roadmap_tier1_command_verbatim():
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert match, "ROADMAP.md names no tier-1 command"
    assert re.search(r"^\s*run: " + re.escape(match.group(1)) + r"\s*$", WORKFLOW, re.MULTILINE)


def test_workflow_covers_python_3_10_and_3_11_from_requires_python():
    versions = _versions()
    assert {(3, 10), (3, 11)} <= set(versions)
    match = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert match, "pyproject.toml gives no lower bound on Python"
    assert min(versions) == tuple(map(int, match.groups()))


def test_workflow_bounds_the_job_time():
    """A hang ends at the job's limit, not at the runner's six-hour default."""
    match = re.search(r"^\s*timeout-minutes:\s*(\d+)\s*$", WORKFLOW, re.MULTILINE)
    assert match, "no timeout-minutes"
    assert 0 < int(match.group(1)) < 360
