"""Per-run mutable view of a :class:`~repro.faults.plan.FaultPlan`.

The plan itself is immutable and reusable across runs; a
:class:`FaultInjector` tracks which of its entries have fired in *this*
run — which crash windows are open, which transaction crashes are
still pending — and tells the engine when the next scheduled fault or
recovery is due, so a fully stalled engine can jump its logical clock
forward instead of spinning.

It is the one reader of a plan's windows for every runtime: the
simulator steps it on its engine clock, the cluster's fault views
(:mod:`repro.cluster.netfaults`, :mod:`repro.replica.faults`) on the
run's logical message clock.  Overlapping crash windows of one site
form a union: the site is down while any of them is open.
"""

from __future__ import annotations

from .plan import FaultPlan, GrantDelay, SiteCrash, TransactionCrash


class FaultInjector:
    """Replays one :class:`FaultPlan` against one run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending_crashes: list[SiteCrash] = sorted(
            plan.site_crashes, key=lambda crash: crash.at
        )
        #: Crash windows open now, in the order they opened.
        self.open: list[SiteCrash] = []
        self._pending_tx: dict[str, TransactionCrash] = {
            crash.transaction: crash for crash in plan.transaction_crashes
        }
        self._delays_seen: set[GrantDelay] = set()
        #: Faults that actually fired this run (site + tx crashes, and
        #: grant delays the moment they first withhold a grant).
        self.injected = 0

    # ------------------------------------------------------------------
    def advance(self, clock: int) -> tuple[list[SiteCrash], list[SiteCrash]]:
        """Open and close every crash window due at *clock*; returns the
        windows that opened and, one per site, a closed window whose
        site is now up (the last of its open windows closed)."""
        fired = [crash for crash in self._pending_crashes if crash.at <= clock]
        for crash in fired:
            self._pending_crashes.remove(crash)
            self.open.append(crash)
            self.injected += 1
        closed = [
            crash
            for crash in self.open
            if crash.recover_at is not None and crash.recover_at <= clock
        ]
        for crash in closed:
            self.open.remove(crash)
        recovered = {
            crash.site: crash for crash in closed if not self.site_down(crash.site)
        }
        return fired, list(recovered.values())

    def site_down(self, site: int) -> bool:
        """Is any crash window of *site* open?"""
        return any(crash.site == site for crash in self.open)

    def grant_delayed(self, entity: str, site: int, clock: int) -> bool:
        """Is a lock grant on *entity* at *site* withheld at *clock*?
        The first withheld grant per delay entry counts as an injected
        fault."""
        for delay in self.plan.grant_delays:
            if delay.applies_to(entity, site, clock):
                if delay not in self._delays_seen:
                    self._delays_seen.add(delay)
                    self.injected += 1
                return True
        return False

    def message_dropped(self, site: int, kind: str, clock: int) -> bool:
        """Is a *kind* message to *site* dropped at *clock*?"""
        return any(drop.applies_to(site, kind, clock) for drop in self.plan.message_drops)

    def take_transaction_crash(self, name: str, executed: int) -> TransactionCrash | None:
        """The pending crash of *name* if its step count is due —
        removed so it fires exactly once per run."""
        crash = self._pending_tx.get(name)
        if crash is None or executed < crash.after_steps:
            return None
        del self._pending_tx[name]
        self.injected += 1
        return crash

    def next_wakeup(self, clock: int) -> int | None:
        """The earliest strictly-future time at which the plan changes
        the world: a crash fires, a site recovers, or a grant-delay
        window opens or closes.  ``None`` when nothing is scheduled."""
        times = [crash.at for crash in self._pending_crashes if crash.at > clock]
        times.extend(
            crash.recover_at
            for crash in self.open
            if crash.recover_at is not None and crash.recover_at > clock
        )
        for delay in self.plan.grant_delays:
            if delay.at > clock:
                times.append(delay.at)
            if delay.until > clock:
                times.append(delay.until)
        return min(times, default=None)
