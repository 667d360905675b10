"""The measurement scripts under ``tools/`` still load against the package.

Each script runs only under its ``__main__`` guard, so loading it as a
module executes its imports and constants and nothing else. A change that
drops or renames a name a script reads (``experiments._chunk_trials``,
``analytic.DEFAULT_VARIANT``, ``cli.parse_grid``, ...) fails here instead
of at the next measurement.
"""

import importlib.util
import json
import math
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


# the smallest shape of each row family: 1-2 trials, one chunk, one seed
SMALLEST = {
    "dense": [((16.0, 3, False, 2), {})],
    "chunk": [((4.0, 3, True, 2), {})],
    "draw": [((1.25, "intersection", 2), {"chunks": 1})],
    "fixed": [((4.0, 2, 1), {"seeds": 1})],
}


def test_every_layer_timing_row_returns_the_columns_its_table_prints():
    """Each row function of ``layer_timing`` runs in-process at its smallest
    shape, each ``thm2`` measurement included, and returns, as JSON
    numbers, every column its table prints: a row that reads a name the
    package no longer has fails here, not at the next measurement."""
    timing = _load(TOOLS / "layer_timing.py")
    shapes = dict(SMALLEST, thm2=[((name,), {}) for name in timing.THM2])
    assert shapes.keys() == timing.FAMILIES.keys()
    for family, (row, _, _, columns) in timing.FAMILIES.items():
        for args, kwargs in shapes[family]:
            numbers = json.loads(json.dumps(row(*args, **kwargs)))
            assert sorted(numbers) == sorted(name for name, _ in columns), (family, args)
            assert all(math.isfinite(v) for v in numbers.values()), (family, args, numbers)


def test_layer_timing_alternates_trees_and_prints_median_and_range(tmp_path, monkeypatch,
                                                                   capsys):
    """Each round starts one child per tree, the first tree turning with the
    rounds, and a cell is the median (min-max) of its rounds, or the one
    value they all print."""
    timing = _load(TOOLS / "layer_timing.py")
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "linecox").mkdir(parents=True)
        (tree / "linecox" / "__init__.py").touch()
    calls = []

    def child(tree, row, args):
        calls.append(tree.name)
        return {"ms": float(len(calls)), "n": 3}

    monkeypatch.setattr(timing, "_child", child)
    monkeypatch.setitem(timing.FAMILIES, "thm2", (
        timing.thm2_row, ("measurement",), [("first",)], [("ms", "%.1f"), ("n", "%d")]))
    assert timing.main(["--rows", "thm2", "--runs", "3", "--src", str(trees[0]),
                        "--src", str(trees[1])]) == 0
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert capsys.readouterr().out.splitlines() == [
        "| src | measurement | ms | n |", "|---|---|---|---|",
        f"| {trees[0]} | first | 4.0 (1.0-5.0) | 3 |",
        f"| {trees[1]} | first | 3.0 (2.0-6.0) | 3 |"]


def test_a_layer_timing_child_runs_its_row_in_a_new_interpreter():
    """One real child: a new interpreter that imports linecox from the tree
    runs a row of the script and prints its numbers as one JSON line, and
    a tree without linecox is refused before any child starts."""
    timing = _load(TOOLS / "layer_timing.py")
    src = TOOLS.parent / "src"
    assert timing._child(src, timing.thm2_row, ("T corner",)).keys() == {"ms"}
    with pytest.raises(SystemExit):
        timing.main(["--rows", "thm2", "--src", str(TOOLS)])
