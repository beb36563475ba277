"""In-memory span and counter recorder for the traced benchmark run.

Spans are recorded around the public calls the benchmark makes into each
layer of sketchls; nothing inside the package is instrumented. A span's
name starts with the layer it times (``sketch.apply_A.ros``), and every span
opened while another is open records that one as its parent. Spans and
counters are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans ``(name, start, end, parent, trial)`` and counts.

    ``trial`` is set by the caller and tags every span and count recorded
    until it changes, so all spans of one replayed operation share it.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: list[tuple[str, float, str | None]] = []
        self.trial: str | None = None
        self._open: list[int] = []
        self._starts: list[float] = []

    def span(self, name: str) -> "_Block":
        """Context manager recording one span around its block."""
        return _Block(self, name)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        span_id = self._begin()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span_id, name)

    def _begin(self) -> int:
        span_id = len(self.spans)
        self.spans.append(None)
        self._open.append(span_id)
        self._starts.append(time.perf_counter())
        return span_id

    def _end(self, span_id: int, name: str) -> None:
        end = time.perf_counter()
        start = self._starts.pop()
        self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans[span_id] = Span(span_id, name, start, end, parent, self.trial)

    def count(self, name: str, value) -> None:
        self.counts.append((name, float(value), self.trial))

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Spans on one thread nest without overlapping, so the covered time is
        the sum of the children's durations.
        """
        spans = self.finished()
        own = {s.id: s.duration for s in spans}
        for s in spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished():
                handle.write(json.dumps({"type": "span", **asdict(span)}) + "\n")
            for name, value, trial in self.counts:
                handle.write(
                    json.dumps({"type": "count", "name": name, "value": value, "trial": trial})
                    + "\n"
                )


class _Block:
    __slots__ = ("tracer", "name", "span_id")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span_id = self.tracer._begin()
        return self

    def __exit__(self, *exc_info):
        self.tracer._end(self.span_id, self.name)
        return False
