"""Every test session keeps the compiled chunk draw in a cache of its own.

The sampler builds ``_draw.c`` into ``${XDG_CACHE_HOME:-~/.cache}/linecox``
on a process's first draw. Pointing XDG_CACHE_HOME at a session temporary
directory keeps the suite, and the interpreters it starts, from writing to
the user's cache or loading a library an earlier tree left there; it costs
one build a session.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_draw_cache(tmp_path_factory):
    from linecox import sampler

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        sampler._compiled_draw.cache_clear()
        yield
    sampler._compiled_draw.cache_clear()
