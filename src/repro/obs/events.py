"""An append-only event log for the lock-manager simulator.

Where spans answer *where did the time go*, the event log answers *what
happened, in what order*: every lock grant, block, release, executed
step and deadlock detection is appended with a logical timestamp (the
log's own monotone sequence number — simulator runs are already
step-granular, so wall clocks would only add noise and nondeterminism).
A non-serializable run replays as a readable timeline, and two runs of
the same system under the same driver seed produce byte-identical logs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterator

#: The event kinds the simulator emits.  ``crash`` / ``recover`` /
#: ``abort`` / ``retry`` belong to the fault-injection layer
#: (:mod:`repro.faults`): site/transaction crashes, site recoveries,
#: victim rollbacks and retry wake-ups.  ``msg`` / ``drop`` belong to
#: the cluster runtime (:mod:`repro.cluster`): a delivered protocol
#: message and a network-fault message drop.  ``send`` / ``recv``
#: are the wire view of the same runtime (:mod:`repro.obs.
#: distributed`): one frame leaving or reaching a transport endpoint,
#: with the message kind, byte size and — when a replicated run's
#: shared logical clock is attached — the clock tick in ``detail``.
#: ``elect`` / ``failover`` belong to the replication layer
#: (:mod:`repro.replica`): a replica assuming leadership of its
#: group, and a leader change observed after the previous leader died
#: mid-run.
KINDS = (
    "grant",
    "block",
    "release",
    "step",
    "deadlock",
    "complete",
    "crash",
    "recover",
    "abort",
    "retry",
    "msg",
    "drop",
    "send",
    "recv",
    "elect",
    "failover",
)


@dataclass(frozen=True)
class SimEvent:
    """One timeline entry: a logical timestamp plus who/where/what."""

    seq: int
    kind: str
    transaction: str | None = None
    entity: str | None = None
    site: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-friendly rendering (``None`` fields omitted)."""
        payload: dict = {"seq": self.seq, "kind": self.kind}
        if self.transaction is not None:
            payload["transaction"] = self.transaction
        if self.entity is not None:
            payload["entity"] = self.entity
        if self.site is not None:
            payload["site"] = self.site
        if self.detail:
            payload["detail"] = self.detail
        return payload

    def __str__(self) -> str:
        where = f" s{self.site}" if self.site is not None else ""
        who = f" {self.transaction}" if self.transaction else ""
        what = f" {self.entity}" if self.entity else ""
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{self.seq:>4}] {self.kind:<8}{who}{what}{where}{tail}"


class EventLog:
    """Append-only, logically timestamped simulator timeline.

    *capacity* bounds the log: ``None`` (the default) keeps every
    event; a positive count keeps only the newest that many, while
    :attr:`seq` keeps counting, so a post-mortem holds the *recent*
    timeline of an arbitrarily long run in bounded memory.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"event log capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque[SimEvent] = deque(maxlen=capacity)
        #: Events ever emitted (monotone, survives the bound).
        self.seq = 0

    @property
    def dropped(self) -> int:
        """Events pushed out by the bound."""
        return self.seq - len(self.events)

    def emit(
        self,
        kind: str,
        *,
        transaction: str | None = None,
        entity: str | None = None,
        site: int | None = None,
        detail: str = "",
    ) -> SimEvent:
        """Append (and return) one event; the logical timestamp is the
        log's next sequence number."""
        if kind not in KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = SimEvent(
            seq=self.seq,
            kind=kind,
            transaction=transaction,
            entity=entity,
            site=site,
            detail=detail,
        )
        self.events.append(event)
        self.seq += 1
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[SimEvent]:
        """All events of one *kind*, in order."""
        return [event for event in self.events if event.kind == kind]

    def to_jsonl(self) -> str:
        """One JSON object per line, in timeline order."""
        return "\n".join(
            json.dumps(event.to_dict()) for event in self.events
        ) + ("\n" if self.events else "")

    @classmethod
    def from_jsonl(cls, path: str, *, on_skip=None) -> "EventLog":
        """Rebuild a log from a file of :meth:`to_jsonl` output.  A
        damaged line — a producer may have died mid-write — is skipped
        through :func:`repro.obs.report.read_jsonl`, which tells
        *on_skip(path, number, reason)*."""
        from .report import read_jsonl

        log = cls()
        for record in read_jsonl(path, ("seq", "kind"), on_skip=on_skip):
            log.events.append(
                SimEvent(
                    seq=record["seq"],
                    kind=record["kind"],
                    transaction=record.get("transaction"),
                    entity=record.get("entity"),
                    site=record.get("site"),
                    detail=record.get("detail", ""),
                )
            )
        if log.events:
            log.seq = log.events[-1].seq + 1
        return log

    def render(self) -> str:
        """The human-readable timeline, one event per line."""
        lines = [f"timeline: {len(self.events)} events"]
        lines.extend(str(event) for event in self.events)
        return "\n".join(lines)
