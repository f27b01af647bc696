"""The step-granular distributed execution engine.

Runs a :class:`~repro.core.schedule.TransactionSystem` on per-site lock
managers under a pluggable interleaving driver, producing an
:class:`~repro.sim.history.ExecutionHistory`.  The engine enforces
precisely the paper's execution model:

* a step becomes *ready* when all its predecessors in the transaction's
  partial order have executed;
* a ready lock step is *executable* iff its site's lock table can grant
  the lock (otherwise the request queues and may contribute to a
  wait-for cycle);
* update and unlock steps are always executable once ready.

Without faults an execution either completes (a legal schedule — the
engine re-checks this through :meth:`ExecutionHistory.as_schedule`) or
deadlocks, exactly as before: the engine never reorders or aborts on
its own, because the paper's safety notion quantifies over completed
schedules only.

Since PR 3 the engine can additionally consume a
:class:`~repro.faults.FaultPlan` (site crashes with freeze/release
lock-table semantics, lock-grant delays, transaction crash-at-step) and
a deadlock *resolution* policy (:mod:`repro.faults.policies`).  A
victim — of a crash or of a resolved deadlock — is rolled back
(locks released everywhere, executed steps erased from the history)
and requeued after a seeded exponential backoff with jitter, at most
``max_retries`` times.  A completed run is still re-validated as a
legal schedule: rollback removes the victim's events, so what remains
(plus the successful re-execution) is a schedule of the full system.
Incomplete runs now distinguish their cause —
:attr:`SimulationResult.outcome` reports ``"deadlock"``,
``"crashed"``, ``"retry-exhausted"`` or ``"stalled"`` instead of
folding everything into ``"deadlock"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.schedule import TransactionSystem
from ..core.step import Step
from ..errors import ScheduleError
from ..obs import metrics
from ..obs.events import EventLog
from .deadlock import find_deadlock
from .drivers import Candidate, RandomDriver
from .history import Event, ExecutionHistory
from .lockmanager import SiteLockManager

#: Logical-step buckets for fault-recovery latency (rollback to the
#: victim's eventual completion).
RECOVERY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0)


def _faults_counter() -> metrics.Counter:
    return metrics.REGISTRY.counter(
        "repro_faults_injected_total",
        "fault-plan entries fired by the simulator, by kind",
    )


def _resolved_counter() -> metrics.Counter:
    return metrics.REGISTRY.counter(
        "repro_deadlocks_resolved_total",
        "wait-for cycles broken by a resolution policy, by policy",
    )


def _retries_counter() -> metrics.Counter:
    return metrics.REGISTRY.counter(
        "repro_retries_total",
        "aborted-and-requeued work units, by scope",
    )


def _recovery_histogram() -> metrics.Histogram:
    return metrics.REGISTRY.histogram(
        "repro_recovery_latency_steps",
        "logical steps from a rollback to the victim's completion",
        buckets=RECOVERY_BUCKETS,
    )


@dataclass
class SimulationResult:
    """Everything a run produced."""

    history: ExecutionHistory
    completed: bool
    deadlocked: list[str] = field(default_factory=list)
    serializable: bool | None = None
    event_log: EventLog | None = None
    #: Transactions stuck behind a crashed site when the run ended.
    crashed: list[str] = field(default_factory=list)
    #: Transactions whose retry budget ran out (ends the run).
    retry_exhausted: list[str] = field(default_factory=list)
    #: Abort-and-requeue counts per transaction.
    retries: dict[str, int] = field(default_factory=dict)
    faults_injected: int = 0
    deadlocks_resolved: int = 0
    #: Logical steps from each rollback to that victim's completion.
    recovery_latencies: list[int] = field(default_factory=list)

    @property
    def total_retries(self) -> int:
        """All abort-and-requeue events of the run."""
        return sum(self.retries.values())

    @property
    def outcome(self) -> str:
        """``serializable`` / ``non-serializable`` for completed runs;
        incomplete runs report their cause: ``retry-exhausted`` (a
        victim ran out of retries), ``deadlock`` (unresolved wait-for
        cycle), ``crashed`` (stuck behind a crashed site), or
        ``stalled`` (step budget exhausted)."""
        if self.completed:
            return "serializable" if self.serializable else "non-serializable"
        if self.retry_exhausted:
            return "retry-exhausted"
        if self.deadlocked:
            return "deadlock"
        if self.crashed:
            return "crashed"
        return "stalled"


class SimulationEngine:
    """One engine instance simulates one execution of one system.

    With *fifo_grants* the per-entity wait queues are binding: a freed
    lock may only be granted to the earliest-blocked requester, as in
    production lock managers.  Fairness narrows the reachable
    interleavings (and can introduce extra deadlocks when the queue
    head is itself blocked elsewhere) but never affects safety: a
    FIFO-reachable schedule is also reachable without FIFO.

    *fault_plan* and *deadlock_policy* switch on the fault-injection
    and recovery layer (:mod:`repro.faults`); with both unset the
    engine behaves exactly as it always has.  *max_retries* bounds the
    abort-and-requeue budget per transaction; backoff after an abort is
    :func:`repro.faults.policies.backoff_ticks`, its jitter drawn from
    ``random.Random(fault_seed)``.
    """

    def __init__(
        self,
        system: TransactionSystem,
        *,
        fifo_grants: bool = False,
        event_log: EventLog | None = None,
        fault_plan=None,
        deadlock_policy: str | None = None,
        max_retries: int = 3,
        fault_seed: int = 0,
    ) -> None:
        """With an *event_log*, the run's lock grants/blocks/releases,
        step executions, fault injections and deadlock detections are
        appended to it as a logically timestamped timeline
        (:mod:`repro.obs.events`)."""
        self.system = system
        self.database = system.database
        self.fifo_grants = fifo_grants
        self.event_log = event_log
        self.managers = {
            site: SiteLockManager(site, event_log=event_log)
            for site in range(1, self.database.sites + 1)
        }
        #: Per transaction, a bitmask over the ids of its executed
        #: steps (:meth:`~repro.core.transaction.Transaction.plan`).
        self._executed: dict[str, int] = {
            tx.name: 0 for tx in system.transactions
        }
        self._queues: dict[str, list[str]] = {}
        self._blocked_seen: set[tuple[str, str]] = set()
        self._history = ExecutionHistory(system)
        self._clock = 0

        # Fault-injection and recovery state (inert unless configured).
        from ..faults.injector import FaultInjector
        from ..faults.policies import validate_policy

        self.deadlock_policy = validate_policy(deadlock_policy)
        self.max_retries = max_retries
        if fault_plan is not None:
            fault_plan.validate_against(system)
            self._injector = FaultInjector(fault_plan)
        else:
            self._injector = None
        self._faults_active = (
            self._injector is not None or self.deadlock_policy is not None
        )
        self._fault_rng = random.Random(fault_seed)
        # Admission-order ages for the resolution policies, stable
        # across restarts so "youngest" cannot be gamed by dying.
        self._ages = {
            tx.name: index for index, tx in enumerate(system.transactions)
        }
        self._retries: dict[str, int] = {}
        self._down_until: dict[str, int] = {}
        self._abort_clock: dict[str, int] = {}
        self._recovery_latencies: list[int] = []
        self._deadlocks_resolved = 0
        self._crash_stalled: set[str] = set()

    # ------------------------------------------------------------------
    def _ready_steps(self, name: str) -> list[Step]:
        """Unexecuted steps whose predecessors have all executed, in
        program order."""
        plan = self.system[name].plan()
        done = self._executed[name]
        return [
            step
            for number, (step, before) in enumerate(zip(plan.steps, plan.predecessors))
            if not done >> number & 1 and before & done == before
        ]

    def _note_blocked(
        self, name: str, entity: str, holder: str | None
    ) -> None:
        """Timeline a *newly* blocked lock request (re-observations of
        the same wait on later scheduler rounds stay silent)."""
        if self.event_log is None or (name, entity) in self._blocked_seen:
            return
        self._blocked_seen.add((name, entity))
        self.event_log.emit(
            "block",
            transaction=name,
            entity=entity,
            site=self.database.site_of(entity),
            detail=f"held by {holder}" if holder else "behind FIFO queue",
        )

    def _executable(self) -> tuple[list[Candidate], list[tuple[str, str]]]:
        """(executable candidates, blocked lock requests)."""
        candidates: list[Candidate] = []
        blocked: list[tuple[str, str]] = []
        self._crash_stalled = set()
        for tx in self.system.transactions:
            if self._faults_active:
                until = self._down_until.get(tx.name)
                if until is not None:
                    if until > self._clock:
                        continue  # still backing off after an abort
                    del self._down_until[tx.name]
                    if self.event_log is not None:
                        self.event_log.emit(
                            "retry",
                            transaction=tx.name,
                            detail=f"attempt {self._retries[tx.name] + 1}",
                        )
            for step in self._ready_steps(tx.name):
                site = self.database.site_of(step.entity)
                if self._injector is not None and self._injector.site_down(
                    site
                ):
                    self._crash_stalled.add(tx.name)
                    continue
                if step.is_lock:
                    if (
                        self._injector is not None
                        and self._injector.grant_delayed(
                            step.entity, site, self._clock
                        )
                    ):
                        continue  # grant withheld; retried next round
                    holder = self.managers[site].holder(step.entity)
                    if holder is not None and holder != tx.name:
                        blocked.append((tx.name, step.entity))
                        self._note_blocked(tx.name, step.entity, holder)
                        if self.fifo_grants:
                            queue = self._queues.setdefault(
                                step.entity, []
                            )
                            if tx.name not in queue:
                                queue.append(tx.name)
                        continue
                    if self.fifo_grants:
                        queue = self._queues.get(step.entity, [])
                        if queue and queue[0] != tx.name:
                            # Free, but someone arrived first.
                            blocked.append((tx.name, step.entity))
                            self._note_blocked(tx.name, step.entity, None)
                            if tx.name not in queue:
                                queue.append(tx.name)
                            continue
                    candidates.append((tx.name, step))
                else:
                    candidates.append((tx.name, step))
        return candidates, blocked

    def _execute(self, name: str, step: Step) -> None:
        site = self.database.site_of(step.entity)
        manager = self.managers[site]
        if step.is_lock:
            granted = manager.try_lock(step.entity, name)
            if not granted:
                raise ScheduleError(
                    f"engine chose blocked lock {step}[{name}]"
                )
            self._blocked_seen.discard((name, step.entity))
            queue = self._queues.get(step.entity)
            if queue and name in queue:
                queue.remove(name)
        elif step.is_unlock:
            manager.unlock(step.entity, name)
        else:
            holder = manager.holder(step.entity)
            if holder != name:
                raise ScheduleError(
                    f"{name} updates {step.entity!r} without holding its "
                    f"lock (holder: {holder!r})"
                )
            if self.event_log is not None:
                self.event_log.emit(
                    "step",
                    transaction=name,
                    entity=step.entity,
                    site=site,
                    detail=str(step),
                )
        tx = self.system[name]
        self._executed[name] |= 1 << tx.plan().index[step]
        self._history.append(Event(self._clock, site, name, step))
        self._clock += 1
        if (
            name in self._abort_clock
            and self._executed[name].bit_count() == len(tx)
        ):
            latency = self._clock - self._abort_clock.pop(name)
            self._recovery_latencies.append(latency)
            _recovery_histogram().observe(latency)

    # ------------------------------------------------------------------
    # Fault injection and recovery
    # ------------------------------------------------------------------
    def _apply_faults(self) -> str | None:
        """Fire due site crashes/recoveries.  A ``release``-semantics
        crash aborts every lock holder at the site; returns the name of
        a holder whose retry budget ran out, or ``None``."""
        fired, recovered = self._injector.advance(self._clock)
        for crash in recovered:
            if self.event_log is not None:
                self.event_log.emit(
                    "recover", site=crash.site, detail=f"t={self._clock}"
                )
        for crash in fired:
            _faults_counter().labels(kind="site_crash").inc()
            if self.event_log is not None:
                self.event_log.emit(
                    "crash", site=crash.site, detail=crash.semantics
                )
            if crash.semantics == "release":
                holders = sorted(
                    set(self.managers[crash.site].held_entities().values())
                )
                for victim in holders:
                    if not self._abort_and_requeue(
                        victim, f"lost locks: site {crash.site} crashed"
                    ):
                        return victim
        return None

    def _abort_and_requeue(self, name: str, reason: str) -> bool:
        """Roll *name* back — release its locks everywhere, erase its
        executed steps from the history — and requeue it after an
        exponential backoff with jitter.  Returns ``False`` (without
        rolling back) when its retry budget is exhausted."""
        from ..faults.policies import backoff_ticks

        attempt = self._retries.get(name, 0)
        if attempt >= self.max_retries:
            return False
        for manager in self.managers.values():
            manager.release_all(name)
        self._executed[name] = 0
        self._history.events = [
            event for event in self._history.events
            if event.transaction != name
        ]
        for queue in self._queues.values():
            if name in queue:
                queue.remove(name)
        self._blocked_seen = {
            entry for entry in self._blocked_seen if entry[0] != name
        }
        self._retries[name] = attempt + 1
        backoff = backoff_ticks(attempt, self._fault_rng)
        self._down_until[name] = self._clock + backoff
        self._abort_clock[name] = self._clock
        _retries_counter().labels(scope="sim").inc()
        if self.event_log is not None:
            self.event_log.emit(
                "abort",
                transaction=name,
                detail=f"{reason}; backoff {backoff}",
            )
        return True

    def _next_wakeup(self) -> int | None:
        """The earliest strictly-future logical time anything changes
        while no step is executable: a backoff expires or the fault
        plan fires/recovers something."""
        times = [
            until for until in self._down_until.values()
            if until > self._clock
        ]
        if self._injector is not None:
            wake = self._injector.next_wakeup(self._clock)
            if wake is not None:
                times.append(wake)
        return min(times, default=None)

    def _result(self, **overrides) -> SimulationResult:
        fields = dict(
            history=self._history,
            completed=False,
            event_log=self.event_log,
            crashed=sorted(self._crash_stalled),
            retries=dict(self._retries),
            faults_injected=(
                self._injector.injected if self._injector is not None else 0
            ),
            deadlocks_resolved=self._deadlocks_resolved,
            recovery_latencies=list(self._recovery_latencies),
        )
        fields.update(overrides)
        return SimulationResult(**fields)

    # ------------------------------------------------------------------
    def run(self, driver=None, *, max_steps: int | None = None) -> SimulationResult:
        """Run to completion, deadlock, or a fault-layer terminal state.

        *driver* defaults to a seeded :class:`RandomDriver`; *max_steps*
        guards against misbehaving custom drivers.  With faults or a
        resolution policy active the default step budget also covers
        every transaction re-executing up to *max_retries* times, and a
        separate idle budget bounds the clock jumps a fully stalled
        engine may take — a run can therefore never spin forever.
        """
        if driver is None:
            driver = RandomDriver(0)
        budget = max_steps if max_steps is not None else (
            self.system.total_steps() + 1
        )
        idle_budget = 0
        if self._faults_active and max_steps is None:
            # Aborted work re-executes: worst case every transaction
            # retries to exhaustion.
            budget += self.max_retries * self.system.total_steps()
        if self._faults_active:
            retry_slots = self.max_retries * len(self.system.transactions)
            plan_slots = (
                2 * len(self._injector.plan) if self._injector is not None else 0
            )
            # Every idle tick jumps the clock to a strictly later
            # wakeup, and wakeups only come from finitely many plan
            # entries and bounded retries.
            idle_budget = 16 + plan_slots + retry_slots
        executed = 0
        idle = 0
        while executed < budget and idle <= idle_budget:
            if self._injector is not None:
                exhausted = self._apply_faults()
                if exhausted is not None:
                    return self._result(retry_exhausted=[exhausted])
            candidates, blocked = self._executable()
            if not candidates:
                if self._history.is_complete():
                    break
                deadlock = find_deadlock(self.managers.values(), blocked)
                if deadlock is not None and self.deadlock_policy is not None:
                    victim = self._resolve_deadlock(deadlock)
                    if victim is None:
                        continue
                    return self._result(retry_exhausted=[victim])
                if deadlock is not None or (
                    blocked and not self._faults_active
                ):
                    stuck = deadlock or sorted(
                        {name for name, _ in blocked}
                    )
                    if self.event_log is not None:
                        self.event_log.emit(
                            "deadlock", detail=" -> ".join(stuck)
                        )
                    return self._result(deadlocked=stuck)
                wake = self._next_wakeup()
                if wake is not None:
                    self._clock = wake
                    idle += 1
                    continue
                # Nothing executable, no wait-for cycle, nothing
                # scheduled to change: stuck behind a dead site (or a
                # driver starved the run).
                return self._result(
                    deadlocked=sorted({name for name, _ in blocked})
                    if blocked and not self._crash_stalled
                    else []
                )
            name, step = driver(candidates)
            self._execute(name, step)
            executed += 1
            if self._injector is not None:
                crash = self._injector.take_transaction_crash(
                    name, self._executed[name].bit_count()
                )
                if crash is not None:
                    _faults_counter().labels(kind="transaction_crash").inc()
                    if self.event_log is not None:
                        self.event_log.emit(
                            "crash",
                            transaction=name,
                            detail=f"after step {crash.after_steps}",
                        )
                    if not self._abort_and_requeue(
                        name, f"crashed after step {crash.after_steps}"
                    ):
                        return self._result(retry_exhausted=[name])
        if not self._history.is_complete():
            self._crash_stalled = set()
            return self._result()
        # Self-check: a completed run must be a legal paper schedule.
        self._history.as_schedule()
        serializable = self._history.is_serializable()
        if self.event_log is not None:
            self.event_log.emit(
                "complete",
                detail=(
                    "serializable" if serializable else "non-serializable"
                ),
            )
        return self._result(
            completed=True, serializable=serializable, crashed=[]
        )

    def _resolve_deadlock(self, cycle: list[str]) -> str | None:
        """Break *cycle* under the configured policy: abort and requeue
        the victim.  Returns the victim's name when its retry budget is
        exhausted (terminal), else ``None``."""
        from ..faults.policies import choose_victim

        victim = choose_victim(
            self.deadlock_policy, cycle, self._ages, self._fault_rng
        )
        if self.event_log is not None:
            self.event_log.emit(
                "deadlock",
                detail=(
                    f"{' -> '.join(cycle)}; {self.deadlock_policy} "
                    f"aborts {victim}"
                ),
            )
        if not self._abort_and_requeue(
            victim, f"deadlock victim ({self.deadlock_policy})"
        ):
            return victim
        self._deadlocks_resolved += 1
        _resolved_counter().labels(policy=self.deadlock_policy).inc()
        return None


def run_once(
    system: TransactionSystem,
    driver=None,
    *,
    max_steps: int | None = None,
    fifo_grants: bool = False,
    event_log: EventLog | None = None,
    fault_plan=None,
    deadlock_policy: str | None = None,
    max_retries: int = 3,
    fault_seed: int = 0,
) -> SimulationResult:
    """Convenience: fresh engine, one run."""
    return SimulationEngine(
        system,
        fifo_grants=fifo_grants,
        event_log=event_log,
        fault_plan=fault_plan,
        deadlock_policy=deadlock_policy,
        max_retries=max_retries,
        fault_seed=fault_seed,
    ).run(driver, max_steps=max_steps)


def estimate_violation_rate(
    system: TransactionSystem,
    *,
    runs: int,
    seed: int = 0,
    fifo_grants: bool = False,
    fault_plan=None,
    deadlock_policy: str | None = None,
    max_retries: int = 3,
) -> dict[str, float]:
    """Monte-Carlo execution statistics under random interleaving.

    Returns fractions of runs per outcome — always including
    serializable / non-serializable / deadlock, plus any fault-layer
    outcomes that occurred — the simulator-side view of (un)safety
    used by the benchmark harness (experiment E11).
    """
    master = random.Random(seed)
    outcomes = {"serializable": 0, "non-serializable": 0, "deadlock": 0}
    for index in range(runs):
        result = run_once(
            system,
            RandomDriver(master.randrange(2**63)),
            fifo_grants=fifo_grants,
            fault_plan=fault_plan,
            deadlock_policy=deadlock_policy,
            max_retries=max_retries,
            fault_seed=seed + index,
        )
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    return {key: value / runs for key, value in outcomes.items()}
