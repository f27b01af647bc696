"""Cross-process distributed tracing and wire-latency decomposition.

The per-process tracer (:mod:`repro.obs.trace`) stops at process
boundaries; this module carries trace causality and latency stamps
*across* them for the cluster runtime (:mod:`repro.cluster`) and its
replicated sibling (:mod:`repro.replica`):

**Trace-context propagation.**  A coordinator opens one root span per
distributed transaction (:func:`txn_span`, with a process-unique
``trace_id``) and one child span per issued step; the step's context —
``{"id": trace_id, "span": span_id, "pid": pid}`` — rides inside the
request as the optional ``trace`` field of the wire protocol.  A site
server that finds the field opens a **remote-parented** span
(:func:`remote_span`) around its handler, and re-injects the same
context into the messages it sends onward (deadlock probes, resolve
notices, replication ships), so the spans of one transaction form one
causal tree even when every hop ran in a different process.  Messages
*without* the field decode and serve exactly as before — old and new
nodes interoperate.

**Wire-latency decomposition.**  The :data:`WIRE` observer separates
two questions.  *Who is told about a frame* — an event log (``--events``
or a post-mortem run), the metrics, the tracer: while any of them is
attached the observer is :attr:`~WireObserver.active` and every
endpoint reports its sends and receives; a default run attaches none,
so the transports skip every hook.  *Who makes a frame carry a stamp*
— only a reader of the stamp, i.e. the metrics or the tracer
(:attr:`~WireObserver.stamping`): only then is the frame copied and
stamped (the ``wire`` field: wall-clock ``send_ns``; the receiver adds
``recv_ns``), the encode timed and a wall clock read per stage.  An
event log alone therefore sees unstamped frames — its ``send``/``recv``
byte sizes are those of the frames as built.  With metrics on, every
endpoint feeds per-stage nanosecond histograms
(``repro_cluster_latency_ns{stage=...,site=...}``) plus per-kind
``repro_cluster_messages_total`` / ``repro_cluster_bytes_total``
counters.  The five stages:

========      ==========================================================
stage         measured as
========      ==========================================================
encode        sender-side: nanoseconds spent encoding one frame (0 for
              the further sends of a probe encoded once for all peers)
transport     ``recv_ns - send_ns`` (wall clock; includes the sender's
              encode, injected cross-region delay and queue/socket
              dwell)
server_queue  handler start minus ``recv_ns`` at the serving site
lock_wait     lock-request queue time, block to grant (0 when granted
              immediately)
hold          grant to unlock/release of one entity's lock
========      ==========================================================

**Merge model.**  Each process traces into its own JSONL file; the
offline reader (:mod:`repro.obs.report`) concatenates the files and
groups spans by ``trace_id``, resolving parents by ``(pid, span_id)``
so remote links land on the right span.  ``repro trace-report FILE
[FILE ...]`` renders the result: slowest-transaction trees, a
per-stage percentile table, and election/failover annotations from
``replica.*`` spans.

Stamps, stage metrics, spans and wire events are all off by default.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any

from . import trace
from .metrics import REGISTRY

#: The wire-latency stages, in per-step causal order.
STAGES = ("encode", "transport", "server_queue", "lock_wait", "hold")

#: Nanosecond-scale buckets for ``repro_cluster_latency_ns``: 1us..1s.
LATENCY_BUCKETS = (
    1e3,
    1e4,
    1e5,
    5e5,
    1e6,
    5e6,
    1e7,
    5e7,
    1e8,
    1e9,
)

_trace_ids = itertools.count(1)


def new_trace_id(name: str) -> str:
    """A process-unique trace id for the transaction *name*."""
    return f"{name}#{os.getpid()}.{next(_trace_ids)}"


# ----------------------------------------------------------------------
# Trace-context propagation
# ----------------------------------------------------------------------


def txn_span(name: str):
    """The root span of one distributed transaction (a fresh
    ``trace_id``); :data:`~repro.obs.trace.NULL_SPAN` while tracing is
    off.  Detached, so concurrent coordinators in one event loop never
    adopt each other's children."""
    return trace.detached_span("txn.run", trace_id=new_trace_id(name))


def child_span(name: str, parent):
    """A detached child of the local span *parent* (``None``/falsy
    parent or disabled tracing yields the null span)."""
    if not parent:
        return trace.NULL_SPAN
    return trace.detached_span(name, parent=parent)


def remote_span(name: str, context: dict | None):
    """A detached span whose parent is the span named by the wire
    *context* (as produced by :func:`context_of`, possibly in another
    process); the null span when tracing is off or *context* is
    ``None``."""
    if context is None:
        return trace.NULL_SPAN
    try:
        parent = (int(context["pid"]), int(context["span"]))
        trace_id = str(context["id"])
    except (KeyError, TypeError, ValueError):
        return trace.NULL_SPAN
    return trace.detached_span(name, trace_id=trace_id, parent=parent)


def context_of(span) -> dict | None:
    """The wire form of an **entered** span — the value of a message's
    ``trace`` field — or ``None`` for the null span or a span without
    a ``trace_id``."""
    if not span or getattr(span, "trace_id", None) is None:
        return None
    return {"id": span.trace_id, "span": span.span_id, "pid": trace.tracer_pid()}


def extract(message: dict) -> dict | None:
    """The ``trace`` context carried by *message*, or ``None`` (absent
    or malformed contexts are tolerated — old senders interoperate)."""
    context = message.get("trace")
    if isinstance(context, dict) and "id" in context and "span" in context:
        return context
    return None


# ----------------------------------------------------------------------
# The wire observer: stamps, stage metrics, send/recv events
# ----------------------------------------------------------------------


class WireObserver:
    """Process-global switchboard for wire-level observability.

    Three independently attachable sinks:

    * **metrics** (:meth:`enable_metrics`) — per-stage latency
      histograms and byte/message counters in the default registry;
    * **events** (:meth:`attach`) — ``send``/``recv`` entries on a
      :class:`~repro.obs.events.EventLog` (with the shared logical
      clock tick when a replicated run attaches one);
    * **tracing** — implicit: stamps are also added whenever the
      process tracer is on, so remote spans can carry stage attributes.

    :attr:`active` says some sink must be told about frames;
    :attr:`stamping` says one of them reads the ``wire`` stamp, and
    only then do the transports copy, stamp and time a frame.  While
    nothing is attached the transports skip every hook.
    """

    def __init__(self) -> None:
        self.metrics_enabled = False
        self.event_log = None
        self.clock = None
        #: Label values -> bound metric children.  The observer outlives
        #: every run, so this is cleared by :meth:`enable_metrics` —
        #: which each run calls right after resetting the registry.
        self._children: dict[tuple, Any] = {}

    @property
    def active(self) -> bool:
        """Must anyone be told about frames at all?"""
        return (
            self.event_log is not None
            or self.metrics_enabled
            or trace.tracing_enabled()
        )

    @property
    def stamping(self) -> bool:
        """Does anyone read the ``wire`` stamp?  Only the stage metrics
        and remote spans do."""
        return self.metrics_enabled or trace.tracing_enabled()

    def enable_metrics(self) -> None:
        """Start feeding the stage histograms and byte counters (of
        the registry as it is now: children bound earlier are dropped)."""
        self.metrics_enabled = True
        self._children.clear()

    def disable_metrics(self) -> None:
        """Stop feeding the metrics registry."""
        self.metrics_enabled = False

    def attach(self, event_log, clock=None) -> None:
        """Emit ``send``/``recv`` events onto *event_log* (with
        *clock* ticks in the detail when given)."""
        self.event_log = event_log
        self.clock = clock

    def detach(self) -> None:
        """Stop emitting wire events."""
        self.event_log = None
        self.clock = None

    # -- metric families (resolved by name; children bound per run) ----
    def _latency(self):
        return REGISTRY.histogram(
            "repro_cluster_latency_ns",
            "Per-stage wire latency of cluster messages, in nanoseconds.",
            buckets=LATENCY_BUCKETS,
        )

    def _bytes(self):
        return REGISTRY.counter(
            "repro_cluster_bytes_total",
            "Encoded frame bytes moved by cluster transports.",
        )

    def _messages(self):
        return REGISTRY.counter(
            "repro_cluster_messages_total",
            "Frames moved by cluster transports, by message kind.",
        )

    def _batched_steps(self):
        return REGISTRY.counter(
            "repro_cluster_batched_steps_total",
            "Transaction steps carried inside batch frames.",
        )

    def observe(self, stage: str, ns: float, site) -> None:
        """Record one *stage* latency sample (no-op unless metrics are
        enabled)."""
        if self.metrics_enabled:
            key = ("stage", stage, site)
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._latency().labels(
                    stage=stage, site=str(site)
                )
            child.observe(float(max(0, ns)))

    def _count(self, direction: str, message: dict, nbytes: int, site) -> None:
        """Feed the byte/message counters with one frame end."""
        kind = message.get("type", "?")
        key = ("frame", direction, kind, site)
        children = self._children.get(key)
        if children is None:
            labels = {"site": str(site), "kind": kind, "direction": direction}
            children = self._children[key] = (
                self._bytes().labels(**labels),
                self._messages().labels(**labels),
            )
        children[0].inc(nbytes)
        children[1].inc()
        if kind == "batch":
            # Attribute the frame to the steps it carries, so
            # messages-per-step comparisons across batched and
            # unbatched runs stay honest.
            steps = message.get("steps")
            if isinstance(steps, list) and steps:
                key = ("steps", direction, site)
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._batched_steps().labels(
                        site=str(site), direction=direction
                    )
                child.inc(len(steps))

    # -- transport hooks ----------------------------------------------
    def stamp(self, message: dict) -> dict:
        """A shallow copy of *message* carrying the sender's wire
        stamp (call only while :attr:`stamping`)."""
        stamped = dict(message)
        stamped["wire"] = {"send_ns": time.time_ns()}
        return stamped

    def _event(self, kind: str, message: dict, nbytes: int, site) -> None:
        detail = f"{message.get('type', '?')} {nbytes}B"
        steps = message.get("steps")
        if isinstance(steps, list) and message.get("type") == "batch":
            detail += f" steps={len(steps)}"
        if self.clock is not None:
            detail += f" clock={self.clock.now}"
        self.event_log.emit(
            kind,
            transaction=message.get("txn"),
            site=site if isinstance(site, int) else None,
            detail=detail,
        )

    def sent(self, message: dict, nbytes: int, encode_ns: int, site) -> None:
        """One frame left an endpoint: record the encode stage, the
        byte counter and (when attached) a ``send`` event."""
        if self.metrics_enabled:
            self.observe("encode", encode_ns, site)
            self._count("sent", message, nbytes, site)
        if self.event_log is not None:
            self._event("send", message, nbytes, site)

    def received(self, message: dict, nbytes: int, site) -> None:
        """One frame reached an endpoint: complete its wire stamp if it
        carries one (the only case that reads a clock), record the
        transport stage, the byte counter and (when attached) a
        ``recv`` event."""
        wire = message.get("wire")
        if isinstance(wire, dict):
            now = time.time_ns()
            send_ns = wire.get("send_ns")
            if isinstance(send_ns, int):
                self.observe("transport", now - send_ns, site)
            wire["recv_ns"] = now
        if self.metrics_enabled:
            self._count("received", message, nbytes, site)
        if self.event_log is not None:
            self._event("recv", message, nbytes, site)


#: The process-global wire observer every transport consults.
WIRE = WireObserver()


def server_queue_ns(message: dict) -> int | None:
    """Nanoseconds *message* sat between transport receive and handler
    start (``None`` when the frame carried no stamp)."""
    wire = message.get("wire")
    if isinstance(wire, dict):
        recv_ns = wire.get("recv_ns")
        if isinstance(recv_ns, int):
            return max(0, time.time_ns() - recv_ns)
    return None


def transport_ns(message: dict) -> int | None:
    """The stamped transport latency of *message* (``recv_ns -
    send_ns``), or ``None`` without a complete stamp."""
    wire = message.get("wire")
    if isinstance(wire, dict):
        send_ns, recv_ns = wire.get("send_ns"), wire.get("recv_ns")
        if isinstance(send_ns, int) and isinstance(recv_ns, int):
            return max(0, recv_ns - send_ns)
    return None
