"""Spans recorded around the benchmark's calls into logmeasure.

A traced pass goes through a Tracer: each public call the benchmark makes is a
span whose parent is the pass span, and each callback the benchmark hands the
program (test functions, vector fields, eta, initial data, family maps) is a
span whose parent is the public call that was open when it ran.  Spans stay in
memory and are written out when the run ends.  An untraced pass goes through
Direct, which calls straight through, with the unwrapped callbacks.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int
    ok: bool = False
    rows: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _batch_rows(args: tuple) -> int:
    """Rows in the first array argument, which is the batch every callback takes."""
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape is not None and len(shape) > 0:
            return int(shape[0]) if len(shape) == 2 else 1
    return 1


class Direct:
    """Untraced calls: the same interface as Tracer, with nothing recorded."""

    def begin_pass(self, pass_id: int) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def call(self, name: str, fn: Callable, *args: Any, **attrs: Any) -> Any:
        return fn(*args)


class Tracer:
    """Records spans for public calls and the callbacks they run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._pass_id = -1
        self._open: Optional[int] = None

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id
        self._open = len(self.spans)
        self.spans.append(Span("pass", time.perf_counter(), 0.0, None, pass_id))

    def end_pass(self) -> None:
        span = self.spans[self._open]
        span.end = time.perf_counter()
        span.ok = True
        self._open = None

    def call(self, name: str, fn: Callable, *args: Any, **attrs: Any) -> Any:
        """Run a public call as a child of the pass span."""
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._open, self._pass_id, attrs=attrs)
        self.spans.append(span)
        outer, self._open = self._open, index
        try:
            out = fn(*args)
            span.ok = True
            return out
        finally:
            span.end = time.perf_counter()
            self._open = outer

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callback that records a span under whichever public call runs it."""

        def traced(*args: Any) -> Any:
            span = Span(name, time.perf_counter(), 0.0, self._open, self._pass_id, rows=_batch_rows(args))
            self.spans.append(span)
            try:
                out = fn(*args)
                span.ok = True
                return out
            finally:
                span.end = time.perf_counter()

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(index, [])):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.duration - covered)
        return out

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [dict(asdict(s), self_s=t) for s, t in zip(self.spans, selfs)]
