"""In-memory spans and counters recorded from the benchmark's own code.

The benchmark never edits the program: a traced run wraps calls into the
layers' public functions (``wrap_calls``) and records spans around the
calls it makes itself (``span``).  Spans carry their parent so a
layer's self time can be derived; they are written out once, at the end.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    @contextmanager
    def wrap_calls(self, owner, attr: str, counter: str):
        """Count calls of ``owner.attr`` (a module function or a class's
        method) into ``counts[counter]`` while the block runs."""
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)

