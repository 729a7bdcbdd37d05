"""In-memory span tracer that wraps functions from outside the program.

A span records one call: name, start, end, the index of the enclosing span
(its parent), a run id shared by every span of one command, and optional
counts computed from the call's arguments and result. Spans stay in memory
until `Tracer.dump`; nothing is written while the program runs.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations. Spans come from
    one thread with a stack of open calls, so a span's children are nested
    inside it and follow one another without overlapping."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


class Tracer:
    """Collects spans from wrapped callables of one process."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        """Return `fn` recording a span per call. `attrs(args, kwargs,
        result)` may return counts to store on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, self.clock(), 0.0,
                        self._open[-1] if self._open else None, self.run_id)
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "missing": self.missing,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def load_spans(path: str) -> tuple[list[Span], list[str]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Span(**s) for s in doc["spans"]], doc["missing"]
