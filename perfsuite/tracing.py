"""In-memory spans around the benchmark's calls into each layer.

A span records its name (``<layer>.<operation>``), start, end, parent
and free-form attributes.  Spans stay in memory; the caller writes
them out once, when the run ends.  ``NullTracer`` has the same
interface and records nothing, so traced and untraced runs share one
code path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(int(record["id"]))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    enabled = False
    spans: tuple = ()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[dict]]:
        yield None
