"""The measurement scripts under ``tools/`` still load against the package.

Each script runs only under its ``__main__`` guard, so loading it as a
module executes its imports and constants and nothing else. A change that
drops or renames a name a script reads (``experiments._chunk_trials``,
``analytic.DEFAULT_VARIANT``, ``cli.parse_grid``, ...) fails here instead
of at the next measurement.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SCRIPTS = sorted(TOOLS.glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_tool_loads(path):
    assert 'if __name__ == "__main__":' in path.read_text()
    assert callable(_load(path).main)


def test_timing_setup_binds_every_name_its_statements_read():
    """``thm2_timing``'s SETUP runs as its fresh interpreters run it, and
    every name a warm-up or timed statement reads is then bound; the
    statements themselves are not run."""
    timing = _load(TOOLS / "thm2_timing.py")
    namespace = {}
    exec(timing.SETUP, namespace)
    for name, statements in timing.MEASUREMENTS.items():
        for statement in statements:
            read = {node.id for node in ast.walk(ast.parse(statement))
                    if isinstance(node, ast.Name)}
            assert read <= namespace.keys(), (name, sorted(read - namespace.keys()))
