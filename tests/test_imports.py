"""The runtime needs numpy alone: importing linecox loads no scipy, and no
numpy submodule is left for a first job to load (numpy 2 loads some of
them lazily, on first attribute access). And no module imports a name it
does not use, each public name is listed once, in the ``__all__`` of
the module that defines it, and no private name is read only by tests."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import linecox

SRC = Path(linecox.__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, sys

def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

import linecox
assert not loaded("scipy"), loaded("scipy")
numpy_at_import = set(loaded("numpy"))

from linecox import (ModelParams, RisLinkParams, TurnPolicy, cdf_one_turn_intersection,
                     cdf_two_turn_bound, cli, compare, farfield_success_lower_bound,
                     nearfield_success, reach_quantile, run_mc, typical_intersection,
                     typical_point)

with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
model = ModelParams(1.0, 1.0)
batched = run_mc(model, typical_point(), TurnPolicy.two_turn_directed(), 64, 2.0, 1,
                 workers=1)
k_turn = run_mc(model, typical_intersection(), TurnPolicy.k_turn(2), 16, 2.0, 1,
                grid=[0.0, 0.3, 1.0, 2.0], workers=1)
compare(batched, k_turn)  # unequal grids: compared on their union
cdf_one_turn_intersection(model, 1.0)
cdf_two_turn_bound(model, 1.0)
for policy in ("one-turn-point", "zero-turn-intersection", "one-turn-intersection"):
    reach_quantile(model, 0.5, policy)
link = RisLinkParams(1.0, 1.0, 1.0, 0.01, 0.1, 10.0, 10.0, 0.005, 0.005, 1.0,
                     1e-10, 10.0)
nearfield_success(link, model)
farfield_success_lower_bound(link, model)

assert not loaded("scipy"), loaded("scipy")
late = sorted(set(loaded("numpy")) - numpy_at_import)
assert not late, late
print("ok")
"""


def test_runtime_loads_no_scipy_and_no_late_numpy_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _unused_imports(path: Path) -> list:
    """Names a module imports and neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read | exported)


def test_src_imports_are_used():
    """No module of the package (its ``__init__`` files re-export), no
    script under ``tools/``, no demo and no test module or test helper
    under ``tests/`` imports a name it does not use: there is no linter in
    the toolchain, and a check that moves into a record leaves its old
    imports behind."""
    modules = [p for p in sorted((SRC / "linecox").rglob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 10
    root = Path(__file__).resolve().parent.parent
    scripts = sorted(root.glob("tools/*.py")) + sorted(root.glob("demos/*.py"))
    assert len(scripts) >= 5
    tests = sorted(root.glob("tests/*.py"))
    assert len(tests) >= 20
    modules += scripts + tests
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, unused


def _conversions(node, path: Path) -> list:
    """The f-string fields under ``node`` that apply a conversion (``!r``,
    ``!s`` or ``!a``), except within ``errors._shown``."""
    if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("errors.py", "_shown"):
        return []
    found = [f"{path.relative_to(SRC)}:{node.lineno}"] if (
        isinstance(node, ast.FormattedValue) and node.conversion != -1) else []
    for child in ast.iter_child_nodes(node):
        found += _conversions(child, path)
    return found


def test_only_errors_shown_converts_a_value_for_a_message():
    """A message shows a value through ``errors._shown``, the one rule that
    cannot fail on an int too long to print: no f-string of the package
    writes a field with ``!r`` (or ``!s``, ``!a``) outside it."""
    found = [site for path in sorted((SRC / "linecox").rglob("*.py"))
             for site in _conversions(ast.parse(path.read_text(), str(path)), path)]
    assert not found, found


# the package's public names, each listed in one module's ``__all__``
PUBLIC = {
    "__version__",
    # analytic
    "DEFAULT_VARIANT", "cdf_naive_recursion",
    "cdf_one_turn_intersection", "cdf_one_turn_point", "cdf_ppp2d_reference",
    "cdf_two_turn_bound", "cdf_upper_intersection", "cdf_zero_turn_intersection",
    "equivalent_ppp_density", "one_turn_intersection_terms", "two_turn_T",
    # applications
    "RisLinkParams", "db_to_linear", "farfield_success_lower_bound",
    "farfield_threshold_distance", "nearfield_success", "nearfield_threshold_distance",
    "reach_quantile",
    # errors
    "DomainError", "GridMismatch", "InputError", "LineCoxError",
    "NegativeIntensity", "NegativeT", "NoBracket", "NonFinite", "NonPositiveParameter",
    "NonPositiveRadius", "NonPositiveScale", "NotAnInteger", "PolicyBudgetNegative",
    "QuadratureFailure", "TBeyondClip", "TooManyLines", "TooManyPoints", "ZeroMu",
    # experiments
    "ComparisonReport", "compare", "default_grid", "dkw_halfwidth", "run_mc",
    # model
    "AngleLaw", "DistributionCurve", "Line", "ModelParams", "PalmKind", "PalmScenario",
    "PointOnLine", "PolicyKind", "TurnPolicy", "rescale", "typical_intersection",
    "typical_point",
    # oracle, sampler
    "PathResult", "chunk_lengths", "sample_path", "shortest_path",
    "ChunkSample", "Realization", "sample_chunk", "sample_palm",
}
ANALYTIC = {
    "DEFAULT_VARIANT", "cdf_naive_recursion",
    "cdf_one_turn_intersection", "cdf_one_turn_point", "cdf_ppp2d_reference",
    "cdf_two_turn_bound", "cdf_upper_intersection", "cdf_zero_turn_intersection",
    "equivalent_ppp_density", "one_turn_intersection_terms", "two_turn_T",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _listed_and_defined(path: Path) -> tuple:
    """A module's ``__all__`` and the names its top level binds. The list
    is read from the imported module, since a package ``__init__`` builds
    its list from its modules' lists."""
    defined = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    return getattr(importlib.import_module(_module_name(path)), "__all__", []), defined


def test_src_defines_no_name_it_never_reads():
    """Every name a module of the package binds at its top level (a def, a
    class or an assignment) is read somewhere in the package, as a name,
    an attribute or an imported name, or is listed in its module's
    ``__all__``: a helper or constant whose last reader leaves would
    otherwise stay behind unseen."""
    paths = sorted((SRC / "linecox").rglob("*.py"))
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for path in paths:
        listed, defined = _listed_and_defined(path)
        unread += [f"{path.relative_to(SRC)} {name}"
                   for name in sorted(defined - read - set(listed) - {"__all__"})]
    assert not unread, unread


def _top_level_private(tree: ast.Module) -> list:
    """(name, statement) of each private name, one with a leading underscore
    but no dunder, that a module's top level binds."""
    found = []
    for stmt in tree.body:
        names = {stmt.name} if isinstance(stmt, (ast.ClassDef, ast.FunctionDef)) else set()
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
        found += [(name, stmt) for name in sorted(names)
                  if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    return found


def _reads(node, bare: bool) -> set:
    """The names read under ``node``: imported names, attributes and, if
    ``bare``, plain names."""
    read = set()
    for child in ast.walk(node):
        if bare and isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            read.add(child.id)
        elif isinstance(child, ast.Attribute):
            read.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            read.update(alias.name for alias in child.names)
    return read


def test_no_private_name_is_read_only_by_tests():
    """Every private name a module of the package binds at its top level is
    read by the package, a tool, a demo or the benchmark harness: code that
    only tests call is deleted, with its tests. In its own module a read
    counts outside the name's own statement, so a helper that only calls
    itself is not read; elsewhere a name counts where it is imported or
    read as an attribute. Tests do not count."""
    root = Path(__file__).resolve().parent.parent
    modules = sorted((SRC / "linecox").rglob("*.py"))
    readers = modules + [p for d in ("tools", "demos", "perfbench")
                         for p in sorted(root.glob(f"{d}/*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in readers}
    imported = {path: _reads(tree, False) for path, tree in trees.items()}
    checked, unread = 0, []
    for path in modules:
        elsewhere = set().union(*(read for p, read in imported.items() if p != path))
        here = [(stmt, _reads(stmt, True)) for stmt in trees[path].body]
        for name, stmt in _top_level_private(trees[path]):
            checked += 1
            if name not in elsewhere and not any(
                    name in read for other, read in here if other is not stmt):
                unread.append(f"{path.relative_to(SRC)} {name}")
    assert checked >= 100
    assert not unread, unread


def test_public_names_are_listed_once_in_their_defining_module():
    """The package surface is unchanged, each public name is listed in the
    ``__all__`` of exactly one module, which defines it, and the package
    and ``linecox.analytic`` hold that module's own object. A module may
    list no name it does not define."""
    assert len(linecox.__all__) == len(PUBLIC) and set(linecox.__all__) == PUBLIC
    assert len(linecox.analytic.__all__) == len(ANALYTIC)
    assert set(linecox.analytic.__all__) == ANALYTIC
    owners = {}
    for path in sorted((SRC / "linecox").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = _module_name(path)
        listed, defined = _listed_and_defined(path)
        assert set(listed) <= defined, (module, sorted(set(listed) - defined))
        for name in listed:
            owners.setdefault(name, []).append(module)
    for package in (linecox, linecox.analytic):
        for name in set(package.__all__) - {"__version__"}:
            assert len(owners.get(name, ())) == 1, (name, owners.get(name))
            module = importlib.import_module(owners[name][0])
            assert getattr(package, name) is getattr(module, name), name
