"""The run clock, and fault plans reinterpreted as *network* faults.

The simulator's :class:`~repro.faults.plan.FaultPlan` speaks in engine
steps; the cluster has no global step counter, so every cluster run
keeps one :class:`LogicalClock` — a cluster-wide **logical message
clock** — and replays the plan on it through the same
:class:`~repro.faults.injector.FaultInjector` the simulator uses.  The
topology builds the clock and hands it to every site server and to the
fault view.  The one rule of time:

* each frame a site server processes ticks the clock once;
* a withheld grant ticks it once per waiting turn;
* a crashed plain site ticks it once per stall turn, so every finite
  fault window closes even in an otherwise idle cluster;
* a crashed replica does not tick it (:attr:`NetworkFaultAdapter.
  ticks_while_down`): a dead leader must not age the leases that
  choose its successor.

Under the memory transport the whole schedule of misfortune is thereby
deterministic.  The reinterpretation:

* :class:`~repro.faults.plan.SiteCrash` — the site server stops
  consuming messages while any of its crash windows is open (both
  crash semantics look like a dead server from outside; the
  lease-style ``"release"`` table-clearing remains simulator-only).
* :class:`~repro.faults.plan.GrantDelay` — a matching lock *grant
  reply* is withheld until the window closes: the lock is taken in the
  site's table, but the requester learns late — a pure message delay.
* :class:`~repro.faults.plan.MessageDrop` — a matching inbound message
  is discarded unprocessed (a ``drop`` event and counter record it);
  the sender's request timeout is its only recourse.
"""

from __future__ import annotations

from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..obs.events import EventLog
from ..obs.metrics import REGISTRY


class LogicalClock:
    """The run's one monotone message counter; leases and fault
    windows are plain integer comparisons against :attr:`now`."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def tick(self) -> int:
        """Advance by one; returns the new time."""
        self.now += 1
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogicalClock(now={self.now})"


# Resolved by name at use time: a cached handle would be orphaned by
# the per-run ``REGISTRY.reset()`` and count into nothing afterwards.
def _drops_counter():
    return REGISTRY.counter(
        "repro_cluster_messages_dropped_total",
        "Protocol messages discarded by injected network faults.",
    )


class NetworkFaultAdapter:
    """A :class:`FaultInjector` on the run clock, plus the events and
    drop counter of a cluster run; every site server consults it."""

    #: Does a crashed server tick the clock while it stalls?
    ticks_while_down = True

    def __init__(
        self,
        plan: FaultPlan | None = None,
        *,
        clock: LogicalClock,
        event_log: EventLog | None = None,
    ) -> None:
        self.injector = FaultInjector(plan or FaultPlan())
        self.clock = clock
        self.event_log = event_log
        self.dropped = 0

    def _emit(self, kind: str, **fields) -> None:
        if self.event_log is not None:
            self.event_log.emit(kind, **fields)

    # ------------------------------------------------------------------
    def site_down(self, site: int) -> bool:
        """Is *site* inside a crash window right now?"""
        now = self.clock.now
        fired, recovered = self.injector.advance(now)
        for crash in fired:
            self._emit("crash", site=crash.site, detail=f"server stopped at message clock {now}")
        for crash in recovered:
            self._emit("recover", site=crash.site, detail=f"server resumed at message clock {now}")
        return self.injector.site_down(site)

    def grant_delayed(self, entity: str, site: int) -> bool:
        """Must the grant reply for *entity* at *site* be withheld?"""
        return self.injector.grant_delayed(entity, site, self.clock.now)

    def drop(self, site: int, kind: str, *, transaction: str | None = None) -> bool:
        """Discard this inbound message?  Records the drop if so."""
        if not self.injector.message_dropped(site, kind, self.clock.now):
            return False
        self.dropped += 1
        _drops_counter().inc()
        self._emit(
            "drop",
            site=site,
            transaction=transaction,
            detail=f"{kind} dropped at message clock {self.clock.now}",
        )
        return True
