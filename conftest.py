"""Every test session keeps the package's compiled C in a cache of its own.

``linecox._native`` builds every ``*.c`` of the package into one library
in ``${XDG_CACHE_HOME:-~/.cache}/linecox`` on a process's first draw.
Pointing XDG_CACHE_HOME at a session temporary directory keeps the suite,
and the interpreters it starts, from writing to the user's cache or
loading a library an earlier tree left there; it costs one build a
session.

With LINECOX_TEST_SANITIZE set, the session builds that library with
AddressSanitizer and UndefinedBehaviorSanitizer (``_SANITIZE_FLAGS``),
which stop the run at the first bad access or undefined operation in the
C code. The interpreter must preload both runtimes, gcc's ``libasan.so``
and ``libubsan.so``, with ASAN_OPTIONS=detect_leaks=0, since the
interpreter itself keeps memory to its exit; the sanitizer step of
``.github/workflows/tier1.yml`` runs the draw's tests so. The build keeps
``-ffp-contract=off``, so the instrumented draw gives the same bits and
the tests that compare the draws run unchanged.
"""

import os

import pytest

_SANITIZE_FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off",
                   "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                   "-fPIC", "-shared")


@pytest.fixture(scope="session", autouse=True)
def private_native_cache(tmp_path_factory):
    from linecox import _native

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        if os.environ.get("LINECOX_TEST_SANITIZE"):
            patch.setattr(_native, "_BUILD_FLAGS", _SANITIZE_FLAGS)
        _native.library.cache_clear()
        yield
    _native.library.cache_clear()
