"""Fault plans reinterpreted as *network* faults.

The simulator's :class:`~repro.faults.plan.FaultPlan` speaks in engine
steps; the cluster has no global step counter, so this adapter replays
the same plan on a cluster-wide **logical message clock**: every
protocol message a site processes (and every tick a stalled site
waits) advances it by one.  The reinterpretation:

* :class:`~repro.faults.plan.SiteCrash` — the site server stops
  consuming messages while ``at <= clock < recover_at`` (both crash
  semantics look like a dead server from outside; the lease-style
  ``"release"`` table-clearing remains simulator-only).
* :class:`~repro.faults.plan.GrantDelay` — a matching lock *grant
  reply* is withheld until the window closes: the lock is taken in the
  site's table, but the requester learns late — a pure message delay.
* :class:`~repro.faults.plan.MessageDrop` — a matching inbound message
  is discarded unprocessed (a ``drop`` event and counter record it);
  the sender's request timeout is its only recourse.

Waiting loops tick the clock too, so every finite fault window closes
even in an otherwise idle cluster, and under the memory transport the
whole schedule of misfortune is deterministic.
"""

from __future__ import annotations

from ..faults.plan import FaultPlan
from ..obs.events import EventLog
from ..obs.metrics import REGISTRY


# Resolved by name at use time: a cached handle would be orphaned by
# the per-run ``REGISTRY.reset()`` and count into nothing afterwards.
def _drops_counter():
    return REGISTRY.counter(
        "repro_cluster_messages_dropped_total",
        "Protocol messages discarded by injected network faults.",
    )


class NetworkFaultAdapter:
    """Per-run fault state every site server of a cluster consults."""

    def __init__(
        self,
        plan: FaultPlan | None = None,
        *,
        event_log: EventLog | None = None,
    ) -> None:
        self.plan = plan or FaultPlan()
        self.event_log = event_log
        self.clock = 0
        self.dropped = 0
        self._down_announced: set[int] = set()

    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Advance the logical message clock by one."""
        self.clock += 1
        return self.clock

    def site_down(self, site: int) -> bool:
        """Is *site* inside a crash window right now?"""
        for crash in self.plan.site_crashes:
            if crash.site != site or self.clock < crash.at:
                continue
            if crash.recover_at is None or self.clock < crash.recover_at:
                if site not in self._down_announced:
                    self._down_announced.add(site)
                    if self.event_log is not None:
                        self.event_log.emit(
                            "crash",
                            site=site,
                            detail=f"server stopped at message clock {self.clock}",
                        )
                return True
        if site in self._down_announced:
            self._down_announced.discard(site)
            if self.event_log is not None:
                self.event_log.emit(
                    "recover",
                    site=site,
                    detail=f"server resumed at message clock {self.clock}",
                )
        return False

    def grant_delayed(self, entity: str, site: int) -> bool:
        """Must the grant reply for *entity* at *site* be withheld?"""
        return any(delay.applies_to(entity, site, self.clock) for delay in self.plan.grant_delays)

    def drop(self, site: int, kind: str, *, transaction: str | None = None) -> bool:
        """Discard this inbound message?  Records the drop if so."""
        for entry in self.plan.message_drops:
            if entry.applies_to(site, kind, self.clock):
                self.dropped += 1
                _drops_counter().inc()
                if self.event_log is not None:
                    self.event_log.emit(
                        "drop",
                        site=site,
                        transaction=transaction,
                        detail=f"{kind} dropped at message clock {self.clock}",
                    )
                return True
        return False
