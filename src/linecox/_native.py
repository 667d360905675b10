"""The package's C code, compiled, cached and loaded in one place.

Every ``*.c`` file beside this module (today ``_draw.c``, the chunk draw)
is compiled into one shared library on a machine's first need of it,
kept in the per-user cache and loaded with ctypes; ``library()`` gives it
to the modules that call into it, or None and the reason where it cannot
be built or loaded, in which case they run their Python reference code,
which gives the same bits. Nothing is built or loaded at import.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

_SOURCES = tuple(sorted(Path(__file__).parent.glob("*.c")))
_BUILD_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120

_log = logging.getLogger(__name__)


class _NoLibrary(Exception):
    """Why the library cannot be built: the machine lacks what the build
    needs (a compiler, numpy's library, a private cache)."""


class _BuildFailed(_NoLibrary):
    """The compiler ran and gave no library: a fault, not a machine
    without a compiler."""


def _library_path() -> Path:
    """The shared library of ``_SOURCES`` in the per-user cache
    ``${XDG_CACHE_HOME:-~/.cache}/linecox``, a directory made with mode 0700
    and refused if another user owns it or may write to it. Its name,
    ``native-<24 hex>.so``, hashes every source, the compiler command
    (sysconfig's ``CC`` and ``_BUILD_FLAGS``), numpy's version and numpy's
    ``libnpyrandom.a``, so a numpy upgrade builds it again; a missing one
    is built (``_build``). _NoLibrary names what is missing."""
    import sysconfig  # only the first call of a process needs it

    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise _NoLibrary("sysconfig names no C compiler")
    command = [*cc.split(), *_BUILD_FLAGS]
    numpy_lib = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
    key = hashlib.sha256()
    try:
        for part in (*(s.read_bytes() for s in _SOURCES), " ".join(command).encode(),
                     np.__version__.encode(), numpy_lib.read_bytes()):
            key.update(hashlib.sha256(part).digest())
    except OSError as exc:
        raise _NoLibrary(f"cannot read {exc.filename}: {exc.strerror}") from None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    cache = Path(base, "linecox")
    if not cache.is_absolute():
        raise _NoLibrary("no home directory to keep a cache in")
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = cache.stat()
    except OSError as exc:
        raise _NoLibrary(f"no cache at {cache}: {exc.strerror}") from None
    if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
        raise _NoLibrary(f"the cache {cache} is not private: another user owns it "
                         "or may write to it")
    library = cache / f"native-{key.hexdigest()[:24]}.so"
    if not library.is_file():
        _build(command, numpy_lib, library)
    return library


def _build(command, numpy_lib, library):
    """Compile ``_SOURCES`` into ``library`` with ``command``, linking
    numpy's ``numpy_lib``: in a temporary directory beside it and then
    ``os.replace``, so that processes building at once each load a whole
    file. _NoLibrary if the compiler is not on PATH or the cache takes no
    directory, _BuildFailed if the compiler fails or takes over
    ``_BUILD_TIMEOUT_S``."""
    import subprocess  # only a build needs it

    if shutil.which(command[0]) is None:
        raise _NoLibrary(f"no C compiler {command[0]} on PATH")
    started = time.perf_counter()
    try:
        partial_dir = tempfile.TemporaryDirectory(dir=library.parent)
    except OSError as exc:
        raise _NoLibrary(f"cannot write to {library.parent}: {exc.strerror}") from None
    with partial_dir:
        partial = os.path.join(partial_dir.name, library.name)
        try:
            proc = subprocess.run([*command, *map(str, _SOURCES), str(numpy_lib), "-lm",
                                   "-o", partial], capture_output=True, text=True,
                                  timeout=_BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
                raise _BuildFailed(f"{command[0]} exited {proc.returncode}: {last}")
            os.replace(partial, library)
        except subprocess.TimeoutExpired:
            raise _BuildFailed(f"the build took over {_BUILD_TIMEOUT_S} s") from None
        except OSError as exc:
            raise _BuildFailed(f"the build failed: {exc}") from None
    _log.info("sampler: compiled %s in %.2f s", library.name, time.perf_counter() - started)


@functools.cache
def library():
    """(the loaded library, "compiled"), or (None, "python (reason)") where
    ``_library_path`` cannot give one or it does not load, with one record
    that names the reason: an INFO where the machine lacks what the build
    needs, since the Python code is the supported path there, and a
    WARNING where the build or the load fails. Resolved on a process's
    first call, never at import, and kept for the process; ``run_mc``
    resolves it before it starts a pool, so the workers inherit it."""
    try:
        return ctypes.CDLL(str(_library_path())), "compiled"
    except _NoLibrary as exc:
        reason = str(exc)
        level = logging.WARNING if isinstance(exc, _BuildFailed) else logging.INFO
    except OSError as exc:
        reason, level = f"the compiled draw does not load: {exc}", logging.WARNING
    _log.log(level, "sampler: drawing in Python, not compiled: %s", reason)
    return None, f"python ({reason})"
