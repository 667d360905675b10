"""The compiled chunk draw (``sampler._compiled_draw`` and ``_draw.c``):
where a C compiler is on PATH it is built once into the per-user cache
and used; where it cannot be built, the Python loop draws the same bits,
with one record that names the reason; and ``run_mc`` says which ran."""

import logging
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from linecox import (
    ModelParams,
    TurnPolicy,
    run_mc,
    sample_chunk,
    sampler,
    typical_intersection,
    typical_point,
)

_CC = (sysconfig.get_config_var("CC") or "").split()
_HAS_CC = bool(_CC) and shutil.which(_CC[0]) is not None
_FIELDS = ("angle", "offset", "line_start", "arcs", "arc_start")
_ARGS = (ModelParams(4.0, 2.0), typical_intersection(), 3.0, 2024, 5, 45)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader resolved anew, against an empty cache under tmp_path,
    and resolved anew again after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    sampler._compiled_draw.cache_clear()
    yield tmp_path / "cache" / "linecox"
    sampler._compiled_draw.cache_clear()


def _python_chunk(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(sampler, "_compiled_draw", lambda: (None, "python (forced)"))
        return sample_chunk(*args)


def _same_bits(a, b) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in _FIELDS)


@pytest.mark.skipif(not _HAS_CC, reason="no C compiler on PATH")
def test_a_compiler_on_path_builds_the_draw_once_and_it_is_used(fresh_loader, monkeypatch,
                                                                caplog):
    """On an empty cache the first draw compiles ``_draw.c`` into a private
    cache directory, and the draw runs compiled; a later resolution loads
    the cached file and builds nothing."""
    builds = []
    build = sampler._build
    monkeypatch.setattr(sampler, "_build", lambda *a: builds.append(a) or build(*a))
    with caplog.at_level(logging.INFO, logger="linecox"):
        draw, path = sampler._compiled_draw()
    assert draw is not None and path == "compiled" and len(builds) == 1
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    (library,) = fresh_loader.glob("draw-*.so")
    assert stat.S_IMODE(fresh_loader.stat().st_mode) == 0o700
    assert sorted(p.name for p in fresh_loader.iterdir()) == [library.name]
    chunk = sample_chunk(*_ARGS)
    assert _same_bits(chunk, _python_chunk(monkeypatch, *_ARGS))

    sampler._compiled_draw.cache_clear()
    assert sampler._compiled_draw()[1] == "compiled" and len(builds) == 1


def _break_the_source(monkeypatch, tmp_path):
    broken = tmp_path / "_draw.c"
    broken.write_text("#error this draw does not compile\n")
    monkeypatch.setattr(sampler, "_DRAW_SOURCE", broken)


def _hide_the_compiler(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))


def _unwritable_cache(monkeypatch, tmp_path):
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))


def _shared_cache(monkeypatch, tmp_path):
    shared = tmp_path / "shared" / "linecox"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "shared"))


@pytest.mark.parametrize("failure, reason, level", [
    pytest.param(_break_the_source, "exited", logging.WARNING,
                 marks=pytest.mark.skipif(not _HAS_CC, reason="no C compiler on PATH")),
    (_hide_the_compiler, "on PATH", logging.INFO),
    (_unwritable_cache, "no cache", logging.INFO),
    (_shared_cache, "not private", logging.INFO),
], ids=["build fails", "no compiler", "no writable cache", "cache others may write"])
def test_a_draw_that_cannot_be_built_falls_back_and_says_why(
        fresh_loader, monkeypatch, tmp_path, caplog, failure, reason, level):
    """A build that fails, a compiler missing from PATH, a cache that
    cannot be made and one that others may write each leave the Python
    loop to draw, with the same bits as the compiled draw and one record
    per process naming the reason: a WARNING for the failed build, a
    fault, and an INFO where the machine lacks what the build needs, so
    that scripts on such a machine print nothing. No library is left in
    the cache."""
    want = sample_chunk(*_ARGS)  # compiled where a compiler is
    shutil.rmtree(fresh_loader, ignore_errors=True)
    failure(monkeypatch, tmp_path)
    sampler._compiled_draw.cache_clear()
    with caplog.at_level(logging.INFO, logger="linecox"):
        draw, path = sampler._compiled_draw()
        chunk = sample_chunk(*_ARGS)
        sample_chunk(*_ARGS)
    assert draw is None and path.startswith("python (") and reason in path
    said = [r for r in caplog.records if "not compiled" in r.getMessage()]
    assert [r.levelno for r in said] == [level] and reason in said[0].getMessage()
    assert not [r for r in caplog.records if r.levelno > level]
    assert _same_bits(chunk, want)
    assert not list(tmp_path.rglob("*.so"))


def test_a_script_that_cannot_build_the_draw_prints_nothing(tmp_path):
    """A fresh interpreter, its logging unconfigured, on a machine where
    the cache cannot be made: the Python loop draws and nothing reaches
    stderr, so the demos and the quiet CLI run there as cleanly as with
    the compiled draw."""
    (tmp_path / "file").write_text("")
    src = Path(sampler.__file__).resolve().parent.parent
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "file"), PYTHONPATH=str(src))
    script = ("from linecox import ModelParams, sample_chunk, sampler, typical_point\n"
              "sample_chunk(ModelParams(1.0, 1.0), typical_point(), 3.0, 1, 0, 2)\n"
              "print(sampler._compiled_draw()[1])\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.startswith("python (no cache at")


@pytest.mark.skipif(not _HAS_CC, reason="no C compiler on PATH")
def test_a_trial_that_does_not_fit_is_drawn_again_into_fresh_buffers(fresh_loader,
                                                                    monkeypatch):
    """Buffers far too small for the chunk make the compiled draw stop at
    each trial that does not fit and resume from it, growing them while no
    trial fits; the chunk has the bits of the Python loop, and each of its
    arrays owns a buffer of its own size."""
    assert sampler._compiled_draw()[1] == "compiled"
    for sizes in [(1, 3), (40, 600)]:
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_buffer_sizes", lambda *args: sizes)
            chunk = sample_chunk(*_ARGS)
        assert _same_bits(chunk, _python_chunk(monkeypatch, *_ARGS)), sizes
        assert all(getattr(chunk, f).flags.owndata for f in _FIELDS)


def test_run_mc_logs_the_draw_that_ran(fresh_loader, monkeypatch, tmp_path, caplog):
    """run_mc's INFO line names the draw: ``compiled`` where a compiler
    builds it, else ``python`` and the reason; the curve is the same
    either way."""
    args = (ModelParams(1.0, 1.0), typical_point(), TurnPolicy.one_turn(), 200, 2.0, 7)
    with caplog.at_level(logging.INFO, logger="linecox"):
        curve = run_mc(*args)
    message = caplog.records[-1].getMessage()
    assert message.endswith("draw compiled" if _HAS_CC else ")") and "draw " in message

    _unwritable_cache(monkeypatch, tmp_path)
    sampler._compiled_draw.cache_clear()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="linecox"):
        again = run_mc(*args)
    message = caplog.records[-1].getMessage()
    assert message.startswith("run_mc: 200 trials") and "draw python (no cache at" in message
    assert np.array_equal(curve.values, again.values) and curve.meta == again.meta
