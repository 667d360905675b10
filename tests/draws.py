"""The two draws of a chunk, for the tests that compare them: the
compiled draw, which the package resolves wherever a C compiler is on
PATH, and the Python loop, forced by patching ``_native.library``."""

import shutil
import sysconfig

from linecox import _native, sample_chunk

_CC = (sysconfig.get_config_var("CC") or "").split()
HAS_CC = bool(_CC) and shutil.which(_CC[0]) is not None


def force_python(patch):
    """Make ``patch`` (a MonkeyPatch) leave every draw to the Python loop."""
    patch.setattr(_native, "library", lambda: (None, "python (forced)"))


def python_chunk(monkeypatch, *args):
    """``sample_chunk(*args)`` drawn by the Python loop."""
    with monkeypatch.context() as patch:
        force_python(patch)
        return sample_chunk(*args)
