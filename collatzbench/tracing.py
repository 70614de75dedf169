"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end and parent.  Spans are kept in memory
until the run ends; a span's self time is its duration minus the time its
child spans cover (the benchmark is single-threaded, so children never
overlap).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counters of one traced pass."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = perf_counter()
            self._open.pop()

    def add(self, counts: dict[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] += value

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child):
            out[s.name] += s.duration - covered
        return dict(out)


@contextmanager
def spans_around(tracer: Tracer, targets):
    """Wrap module-level functions in spans while the block runs.

    Each target is (module, attribute, span name, counter), where counter
    maps (args, result) to counts added to the tracer, or is None.  Library
    code looks these names up in its module globals at call time, so calls
    made inside the library get spans too.  The originals are restored on
    exit.
    """
    saved = []
    try:
        for module, attr, name, counter in targets:
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, _wrap(tracer, orig, name, counter))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def _wrap(tracer: Tracer, fn: Callable, name: str, counter):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.add(counter(args, result))
        return result

    return traced
