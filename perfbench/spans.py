"""In-memory spans around the benchmark's calls into each layer.

A span records its name, the request (job id) it serves, the span that
caused it, its start and end, and counts attached by the caller. Spans are
only recorded from the benchmark's own files, around public calls; nothing
inside the package is instrumented.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: str, **attrs):
        """Time the body; yields the span's attribute dict, which the caller
        may fill in after the body (counts are not part of the timing)."""
        rec = {"name": name, "request": request,
               "parent": self._open[-1] if self._open else None,
               "attrs": attrs, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: the same interface, nothing recorded."""

    def span(self, name: str, request: str, **attrs):
        return contextlib.nullcontext(attrs)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
