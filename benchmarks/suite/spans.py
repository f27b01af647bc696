"""Benchmark-side spans: timed from outside, around calls into a layer.

Every span is timed; records are kept (in memory, written out when the
repetition ends) only on the traced pass.  Spans inside the program are
the next issue's ``ClusterReport.ledger``; these are what it will be
validated against.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "start", "end")

    def __init__(self, span_id: int, name: str, parent: int | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    def __init__(self, repetition: str, *, keep: bool) -> None:
        self.repetition = repetition
        self.keep = keep
        self.closed: list[Span] = []
        self._open: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        self._next_id += 1
        parent = self._open[-1].id if self._open else None
        current = Span(self._next_id, name, parent)
        self._open.append(current)
        current.start = time.perf_counter()
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            self._open.pop()
            if self.keep:
                self.closed.append(current)

    def records(self) -> list[dict]:
        """One dict per kept span; self time is the duration minus the
        part its direct children cover."""
        children: dict[int, float] = {}
        for span in self.closed:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        return [
            {
                "repetition": self.repetition,
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "self_s": span.seconds - children.get(span.id, 0.0),
            }
            for span in sorted(self.closed, key=lambda s: s.id)
        ]
