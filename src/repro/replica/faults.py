"""Fault plans reinterpreted as *leader kills*.

A :class:`~repro.faults.plan.SiteCrash` against a replicated site no
longer means "the site is gone" — the site has replicas precisely so
it survives.  This adapter pins each crash window to a concrete
victim: **the replica holding the site's lease when the first replica
of the site checks the open window**.  That replica stalls
(permanently, or until ``recover_at``); its followers keep running,
one of them wins the next election, and the run completes.  Existing
chaos plans thereby exercise failover without being rewritten.

Windows are read by the base class's
:class:`~repro.faults.injector.FaultInjector` on the run's one
:class:`~repro.cluster.netfaults.LogicalClock`; a stalled victim does
not tick it.  Grant delays and message drops still target *logical*
sites, so they apply to whichever replica currently serves the site.
"""

from __future__ import annotations

from ..cluster.netfaults import LogicalClock, NetworkFaultAdapter
from ..faults.plan import FaultPlan, SiteCrash
from ..obs.events import EventLog
from .group import GroupRegistry, logical_site_of


class ReplicaFaultAdapter(NetworkFaultAdapter):
    """Crash windows pinned to the lease leader the first check finds."""

    ticks_while_down = False

    def __init__(
        self,
        plan: FaultPlan | None = None,
        *,
        registry: GroupRegistry,
        clock: LogicalClock,
        event_log: EventLog | None = None,
    ) -> None:
        super().__init__(plan, clock=clock, event_log=event_log)
        self.registry = registry
        #: Open crash window -> the replica address pinned as its victim.
        self._victims: dict[SiteCrash, int] = {}
        #: One entry per pinned window: the raw material the runtime
        #: turns into recovery-time measurements.
        self.kills: list[dict] = []

    # ------------------------------------------------------------------
    def site_down(self, address: int) -> bool:
        """Is the replica at *address* a stalled crash victim now?"""
        now = self.clock.now
        self.injector.advance(now)
        for crash in [c for c in self._victims if c not in self.injector.open]:
            victim = self._victims.pop(crash)
            self._emit("recover", site=crash.site, detail=f"replica {victim} resumed at clock {now}")
        site = logical_site_of(address)
        down = False
        for crash in self.injector.open:
            if crash.site != site:
                continue
            victim = self._victims.get(crash)
            if victim is None:
                victim = self.registry.leader_of(site)
                if victim is None:
                    continue
                self._victims[crash] = victim
                self.kills.append({"site": site, "victim": victim, "killed_at": now})
                self._emit("crash", site=site, detail=f"leader replica {victim} killed at clock {now}")
            down = down or victim == address
        return down

    def grant_delayed(self, entity: str, address: int) -> bool:
        return super().grant_delayed(entity, logical_site_of(address))

    def drop(self, address: int, kind: str, *, transaction: str | None = None) -> bool:
        return super().drop(logical_site_of(address), kind, transaction=transaction)
