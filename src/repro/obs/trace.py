"""Nested context-manager spans with monotonic timing and JSONL export.

The tracer is a process-global switch: :func:`start_tracing` opens a
JSONL file and every subsequent :func:`span` records one line per
finished span — name, start offset and duration in nanoseconds
(``time.perf_counter_ns``), parent span id, the process pid, and any
attributes the instrumented code attached.  While tracing is *off*,
:func:`span` returns one shared :data:`NULL_SPAN` singleton whose
``__enter__``/``__exit__`` do nothing, so the instrumented hot paths
cost a dict lookup and a falsy branch and allocate **nothing**.

Idiom (attribute work guarded so the disabled path stays free)::

    with span("safety.decide") as sp:
        verdict = ...
        if sp:
            sp.set(method=verdict.method, safe=verdict.safe)

A span that exits through an exception is still recorded, with
``error=True`` and the exception type attached (and the exception is
never swallowed).

Each process traces into its own file.  Records carry their ``pid``
so span ids never collide when the files of several processes (the
sites of a TCP cluster) are read together.

Concurrent asyncio tasks cannot use the implicit span *stack* — a span
held open across an ``await`` would adopt children from whichever task
ran in between.  :func:`detached_span` builds a span with an
**explicit** parent instead (a local :class:`Span` or a remote
``(pid, span_id)`` pair) that never touches the stack, plus an
optional ``trace_id`` that groups every span of one distributed
transaction across processes.  :mod:`repro.obs.distributed` layers the
wire propagation and merge model on top.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any


class NullSpan:
    """The no-op span returned while tracing is disabled.

    Falsy, so instrumentation can guard attribute computation with
    ``if sp:`` and pay nothing on the disabled path.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        """Ignore *attrs* (the tracer is off)."""
        return self


NULL_SPAN = NullSpan()


class Span:
    """One live span: a named, timed, attributed region of execution."""

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "parent_pid",
        "trace_id",
        "start_ns",
        "attrs",
        "_detached",
    )

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = 0
        self.parent_id: int | None = None
        #: Set when the parent span lives in another process.
        self.parent_pid: int | None = None
        #: Distributed-trace grouping key (:mod:`repro.obs.distributed`).
        self.trace_id: str | None = None
        self.start_ns = 0
        self.attrs: dict[str, Any] = {}
        self._detached = False

    def __bool__(self) -> bool:
        return True

    def set(self, **attrs: Any) -> "Span":
        """Attach *attrs* to the span record (last write per key wins)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        if not self._detached:
            stack = tracer._stack
            self.parent_id = stack[-1].span_id if stack else None
            stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.attrs["error"] = True
            self.attrs["error_type"] = exc_type.__name__
        tracer = self.tracer
        if not self._detached:
            if tracer._stack and tracer._stack[-1] is self:
                tracer._stack.pop()
            else:  # mis-nested exit; drop up to and including this span
                while tracer._stack:
                    if tracer._stack.pop() is self:
                        break
        tracer._write(self, end_ns)
        return False


class Tracer:
    """Owns the output file, the span stack and the id counter."""

    def __init__(self, path: str) -> None:
        self.path = path
        # Line buffered: every finished span reaches the file as a
        # whole line, even if the process dies before close().
        self._file = open(path, "w", encoding="utf-8", buffering=1)
        self._origin_ns = time.perf_counter_ns()
        self._next_id = 1
        self._stack: list[Span] = []
        self._pid = os.getpid()

    def span(self, name: str) -> Span:
        return Span(self, name)

    def _write(self, span: Span, end_ns: int) -> None:
        record: dict[str, Any] = {
            "span": span.name,
            "id": span.span_id,
            "pid": self._pid,
            "start_ns": span.start_ns - self._origin_ns,
            "dur_ns": end_ns - span.start_ns,
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
            if span.parent_pid is not None and span.parent_pid != self._pid:
                record["parent_pid"] = span.parent_pid
        if span.trace_id is not None:
            record["trace_id"] = span.trace_id
        if span.attrs:
            record["attrs"] = _jsonable(span.attrs)
        self._file.write(json.dumps(record) + "\n")

    def close(self) -> None:
        self._file.close()


def _jsonable(attrs: dict[str, Any]) -> dict[str, Any]:
    """Attributes coerced to JSON-safe scalars (repr fallback)."""
    safe: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        elif isinstance(value, (list, tuple)):
            safe[key] = [
                item
                if isinstance(item, (str, int, float, bool)) or item is None
                else repr(item)
                for item in value
            ]
        else:
            safe[key] = repr(value)
    return safe


# ----------------------------------------------------------------------
# The process-global switch
# ----------------------------------------------------------------------

_tracer: Tracer | None = None


def start_tracing(path: str) -> Tracer:
    """Begin tracing into the JSONL file *path* (replaces any active
    tracer; the previous one is flushed and closed)."""
    global _tracer
    if _tracer is not None:
        _tracer.close()
    _tracer = Tracer(path)
    return _tracer


def stop_tracing() -> str | None:
    """Flush and close the active tracer; returns its path (or ``None``
    when tracing was already off)."""
    global _tracer
    if _tracer is None:
        return None
    path = _tracer.path
    _tracer.close()
    _tracer = None
    return path


def tracing_enabled() -> bool:
    """Is a tracer active in this process?"""
    return _tracer is not None


def trace_path() -> str | None:
    """The active tracer's output path, or ``None``."""
    return _tracer.path if _tracer is not None else None


def span(name: str):
    """A context-manager span named *name* — :data:`NULL_SPAN` (shared,
    allocation-free) while tracing is off."""
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return Span(tracer, name)


def current_span():
    """The innermost open span, for attaching attributes from helper
    code (e.g. SCC counts); :data:`NULL_SPAN` when tracing is off or no
    span is open."""
    tracer = _tracer
    if tracer is None or not tracer._stack:
        return NULL_SPAN
    return tracer._stack[-1]


def detached_span(
    name: str,
    *,
    trace_id: str | None = None,
    parent: "Span | tuple[int, int] | None" = None,
):
    """A span with an **explicit** parent that never touches the
    tracer's span stack — the form concurrent asyncio tasks must use,
    since a stack-based span held open across an ``await`` would adopt
    children from unrelated tasks.

    *parent* is a local :class:`Span` (the child inherits its
    ``trace_id`` unless one is given) or a remote ``(pid, span_id)``
    pair from another process' trace context.  Returns
    :data:`NULL_SPAN` while tracing is off.
    """
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    span = Span(tracer, name)
    span._detached = True
    span.trace_id = trace_id
    if isinstance(parent, Span):
        span.parent_id = parent.span_id
        if trace_id is None:
            span.trace_id = parent.trace_id
    elif parent is not None:
        pid, span_id = parent
        span.parent_id = span_id
        span.parent_pid = pid
    return span


def tracer_pid() -> int:
    """The pid the active tracer stamps into records (this process);
    0 when tracing is off."""
    return _tracer._pid if _tracer is not None else 0
