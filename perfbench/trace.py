"""In-memory spans and counters recorded from the benchmark's side.

The harness wraps the *calls into* each layer's public functions in
``tracer.span(name)``; nothing under ``src/`` is instrumented.  A span
keeps its name, start, end and the span that caused it (the innermost
open span of the same thread).  A layer's self time is its span's
duration minus the part its child spans cover.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "tags")

    def __init__(self, id_: int, name: str, parent: int | None, tags: dict):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.tags = tags

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """What an untraced run carries: ``span`` costs one call, records
    nothing."""

    def span(self, name: str, **tags):
        return nullcontext()


class Tracer:
    """Span and counter store for one traced run (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        stack = self._stack.__dict__.setdefault("open", [])
        with self._lock:
            span = Span(
                len(self.spans), name, stack[-1].id if stack else None, tags
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id → duration minus its direct children's durations."""
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def total_under(self, prefix: str) -> float:
        """Summed duration of every span whose name starts ``prefix``."""
        return sum(s.duration for s in self.spans if s.name.startswith(prefix))

    def unattributed_share(self, root_name: str) -> float:
        """Share of the ``root_name`` spans' wall that no child span
        explains: the roots' self time over their duration."""
        own = self.self_times()
        roots = self.named(root_name)
        wall = sum(span.duration for span in roots)
        if wall <= 0:
            return 0.0
        return sum(own[span.id] for span in roots) / wall

    def span_cost(self, samples: int = 2000) -> float:
        """Measured cost of one empty span, for the overhead estimate."""
        probe = Tracer()
        started = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / samples

    def dump(self, path: Path) -> None:
        own = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "counters": self.counters,
            "spans": [
                {
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "self": own[span.id],
                    **({"tags": span.tags} if span.tags else {}),
                }
                for span in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
