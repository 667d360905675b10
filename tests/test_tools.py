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
    rounds, and a cell is the median and interquartile range [q1, q3] of
    its rounds, or the one value they all print."""
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
        f"| {trees[0]} | first | 4.0 [2.5, 4.5] | 3 |",
        f"| {trees[1]} | first | 3.0 [2.5, 4.5] | 3 |"]


def test_a_layer_timing_cell_is_not_moved_by_one_over_read_round():
    """Six rounds of which one a 4 ms scheduler tick over-reads: the cell
    prints what it prints with that round read right, where a min-max
    range would print the outlier."""
    timing = _load(TOOLS / "layer_timing.py")
    rounds = [0.3, 0.2, 0.3, 4.2, 0.3, 0.2]
    assert timing._cell("%.1f", rounds) == "0.3 [0.2, 0.3]"
    assert timing._cell("%.1f", [0.3 if r == 4.2 else r for r in rounds]) == "0.3 [0.2, 0.3]"
    assert timing._cell("%d", [3] * 6) == "3"


def test_a_layer_timing_child_runs_its_row_in_a_new_interpreter():
    """One real child: a new interpreter that imports linecox from the tree
    runs a row of the script and prints its numbers as one JSON line, and
    a tree without linecox is refused before any child starts."""
    timing = _load(TOOLS / "layer_timing.py")
    src = TOOLS.parent / "src"
    assert timing._child(src, timing.thm2_row, ("T corner",)).keys() == {"ms"}
    with pytest.raises(SystemExit):
        timing.main(["--rows", "thm2", "--src", str(TOOLS)])


def _canned_run(wall, md5="aa"):
    """The lines ``perfbench/run.py`` prints, as ``tools/ab.py`` reads them."""
    return "\n".join([
        "perfbench workload=mc-sparse seed=1 seconds=24 trace=0",
        'facts {"cpu": "x", "seed": 1}',
        f"md5 mc.0 {md5}", "md5 mc.1 bb", "metric wall_s 0.3 s",
        json.dumps({"correct": True, "attempted": 12, "failed": 0,
                    "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                "setup_s": {"value": 0.2, "unit": "s"}}})])


def test_ab_summarizes_pairs_by_median_quartiles_and_pairs_lower():
    """Five canned pairs: the parent's wall_s median 0.30 [0.29, 0.31], the
    change's 0.11 (-63.3%), lower in 4 of 5 pairs; an equal metric is lower
    in none; one pair's curve md5 differs in one of its two jobs."""
    ab = _load(TOOLS / "ab.py")
    parent = [0.30, 0.32, 0.28, 0.31, 0.29]
    change = [0.10, 0.11, 0.33, 0.12, 0.09]
    pairs = [ab.pair_md5s({"workload": "mc-sparse", "seed": s, "first": "parent",
                           "parent": ab.parse_run(_canned_run(a)),
                           "change": ab.parse_run(_canned_run(b, "cc" if s == 2 else "aa"))})
             for s, (a, b) in enumerate(zip(parent, change))]
    assert pairs[0]["parent"]["facts"] == {"cpu": "x", "seed": 1}
    assert [(p["md5_jobs"], p["md5_differs"]) for p in pairs] == [(2, 0)] * 2 + [(2, 1)] + [
        (2, 0)] * 2
    summary = ab.summarize(pairs)["mc-sparse"]
    wall = summary["wall_s"]
    assert (wall["parent_median"], wall["parent_q1"], wall["parent_q3"]) == pytest.approx(
        (0.30, 0.29, 0.31))
    assert wall["change_median"] == 0.11 and (wall["lower"], wall["pairs"]) == (4, 5)
    assert wall["delta_pct"] == pytest.approx(-63.333, abs=1e-3)
    assert summary["setup_s"]["lower"] == 0 and summary["setup_s"]["delta_pct"] == 0.0
    assert set(summary) == {"wall_s", "setup_s"}
    text = ab.report(pairs, ab.summarize(pairs))
    assert "wall_s       0.3 [0.29, 0.31] -> 0.11  -63.3%  lower in 4/5" in text
    assert "md5 differs in 1 of 2 MC jobs" in text


def test_ab_runs_every_workload_of_the_benchmark_at_its_run_length(capsys):
    """``tools/ab.py`` takes its workloads, metrics and run length from
    ``BENCHMARK.json`` and has no option to run another length or to skip
    a workload."""
    ab = _load(TOOLS / "ab.py")
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    assert ab.WORKLOADS == tuple(w["name"] for w in spec["workloads"])
    assert ab.METRICS == tuple(m["name"] for m in spec["end_to_end"])
    assert ab.RUN_SECONDS == spec["run_seconds"]
    for knob in (["--seconds", "5"], ["--workload", "mc-sparse"]):
        with pytest.raises(SystemExit):
            ab.main(["HEAD", *knob])
        assert "unrecognized arguments" in capsys.readouterr().err
