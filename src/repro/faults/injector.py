"""Per-run mutable view of a :class:`~repro.faults.plan.FaultPlan`.

The plan itself is immutable and reusable across runs; a
:class:`FaultInjector` tracks which of its entries have fired in *this*
run — which sites are currently down, which transaction crashes are
still pending — and tells the engine when the next scheduled fault or
recovery is due, so a fully stalled engine can jump its logical clock
forward instead of spinning.
"""

from __future__ import annotations

from .plan import FaultPlan, GrantDelay, SiteCrash, TransactionCrash


class FaultInjector:
    """Replays one :class:`FaultPlan` against one engine run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending_crashes: list[SiteCrash] = sorted(
            plan.site_crashes, key=lambda crash: crash.at
        )
        self._down: dict[int, SiteCrash] = {}
        self._pending_tx: dict[str, TransactionCrash] = {
            crash.transaction: crash for crash in plan.transaction_crashes
        }
        self._delays_seen: set[GrantDelay] = set()
        #: Faults that actually fired this run (site + tx crashes, and
        #: grant delays the moment they first withhold a grant).
        self.injected = 0

    # ------------------------------------------------------------------
    def advance(self, clock: int) -> tuple[list[SiteCrash], list[SiteCrash]]:
        """Fire every crash / recovery due at *clock*; returns the
        newly crashed and newly recovered entries (for events)."""
        fired = [crash for crash in self._pending_crashes if crash.at <= clock]
        for crash in fired:
            self._pending_crashes.remove(crash)
            self._down[crash.site] = crash
            self.injected += 1
        recovered = [
            crash
            for crash in self._down.values()
            if crash.recover_at is not None and crash.recover_at <= clock
        ]
        for crash in recovered:
            del self._down[crash.site]
        return fired, recovered

    def site_down(self, site: int) -> bool:
        """Is *site* currently crashed?"""
        return site in self._down

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
            for crash in self._down.values()
            if crash.recover_at is not None and crash.recover_at > clock
        )
        for delay in self.plan.grant_delays:
            if delay.at > clock:
                times.append(delay.at)
            if delay.until > clock:
                times.append(delay.until)
        return min(times, default=None)
