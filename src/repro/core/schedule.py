"""Schedules of a locked transaction system, paper §2.

    "A schedule h is a total ordering of all the steps, such that:
     (a) h does not contradict any partial order in T, and
     (b) for each x, every two lock x steps in h are separated by an
         unlock x step."

``h`` is *serializable* iff it is equivalent to a serial schedule under
all interpretations of the update functions; with exclusive locks and
update steps (each a read-then-write), this is conflict equivalence, so a
schedule is serializable iff its transaction conflict graph is acyclic.
The system is **safe** iff every legal schedule is serializable.

This module supplies:

* :class:`TransactionSystem` — a named set of transactions over one
  database;
* :class:`Schedule` — a total order of scheduled steps with legality and
  serializability checks;
* exhaustive enumeration / search over all legal schedules — the
  *definitional* ground truth used to cross-validate every cleverer
  decider in :mod:`repro.core.safety`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from ..errors import ScheduleError, TransactionError
from ..graphs import DiGraph, is_acyclic
from .entity import DistributedDatabase
from .step import Step
from .transaction import Transaction


@dataclass(frozen=True, order=True)
class ScheduledStep:
    """One step of one transaction, as it appears in a schedule."""

    transaction: str
    step: Step

    def __str__(self) -> str:
        return f"{self.step}[{self.transaction}]"

    __repr__ = __str__


class TransactionSystem:
    """A set ``T = {T1, ..., Tk}`` of locked transactions over a common
    distributed database."""

    def __init__(
        self,
        transactions: Sequence[Transaction],
        *,
        database: "DistributedDatabase | None" = None,
    ) -> None:
        if not transactions and database is None:
            raise TransactionError(
                "a transaction system needs transactions (or an explicit "
                "database= for an empty system)"
            )
        names = [tx.name for tx in transactions]
        if len(set(names)) != len(names):
            raise TransactionError(f"duplicate transaction names: {names}")
        if database is None:
            database = transactions[0].database
        for tx in transactions:
            if tx.database != database:
                raise TransactionError(
                    f"transaction {tx.name} uses a different database"
                )
        self.database = database
        self._transactions = {tx.name: tx for tx in transactions}
        # Global id of each transaction's first step.
        self._offsets: dict[str, int] = {}
        total = 0
        for tx in transactions:
            self._offsets[tx.name] = total
            total += len(tx)

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> list[Transaction]:
        return list(self._transactions.values())

    @property
    def names(self) -> list[str]:
        return list(self._transactions)

    def __len__(self) -> int:
        return len(self._transactions)

    def __getitem__(self, name: str) -> Transaction:
        return self._transactions[name]

    def pair(self) -> tuple[Transaction, Transaction]:
        """The two transactions of a pair system (most of the paper)."""
        if len(self._transactions) != 2:
            raise TransactionError(
                f"expected a two-transaction system, have {len(self)}"
            )
        first, second = self.transactions
        return first, second

    def shared_locked_entities(self) -> list[str]:
        """Entities locked by at least two transactions (the vertex set
        of ``D(T1, T2)`` when the system is a pair)."""
        counts: dict[str, int] = {}
        for tx in self.transactions:
            for entity in tx.locked_entities():
                counts[entity] = counts.get(entity, 0) + 1
        return [entity for entity, count in counts.items() if count >= 2]

    def total_steps(self) -> int:
        """``n`` — the total number of steps in the system."""
        return sum(len(tx) for tx in self.transactions)

    # ------------------------------------------------------------------
    # Global step numbering
    # ------------------------------------------------------------------
    def step_id(self, name: str, step: Step) -> int | None:
        """Global id of *step* of transaction *name* — its plan id
        (:meth:`Transaction.plan`) shifted past the steps of the
        transactions before it; ``None`` when the system has no such
        step."""
        tx = self._transactions.get(name)
        local = None if tx is None else tx.plan().index.get(step)
        return None if local is None else self._offsets[name] + local

    @functools.cached_property
    def scheduled_steps(self) -> "tuple[ScheduledStep, ...]":
        """Global step id → scheduled step."""
        return tuple(
            ScheduledStep(tx.name, step)
            for tx in self._transactions.values()
            for step in tx.plan().steps
        )

    @functools.cached_property
    def step_arcs(self) -> tuple[tuple[int, int], ...]:
        """The given precedences of every transaction as global id
        pairs: transaction by transaction, each in ``poset().arcs()``
        order."""
        return tuple(
            (offset + before, offset + after)
            for name, offset in self._offsets.items()
            for before, after in self._transactions[name].plan().arcs
        )

    # ------------------------------------------------------------------
    # Serial schedules
    # ------------------------------------------------------------------
    def serial_schedule(self, order: Sequence[str]) -> "Schedule":
        """The serial schedule running whole transactions in *order*."""
        if sorted(order) != sorted(self.names):
            raise ScheduleError(
                f"serial order {order!r} is not a permutation of {self.names}"
            )
        steps: list[ScheduledStep] = []
        for name in order:
            tx = self._transactions[name]
            steps.extend(
                ScheduledStep(name, step) for step in tx.a_linear_extension()
            )
        return Schedule(self, steps)


class Schedule:
    """A legal schedule of a :class:`TransactionSystem`.

    Construction validates clauses (a) and (b) of the paper's definition
    and raises :class:`ScheduleError` on any violation.
    """

    def __init__(
        self,
        system: TransactionSystem,
        steps: Iterable[ScheduledStep | tuple[str, Step] | int],
    ) -> None:
        """*steps* in schedule order; an ``int`` item is a global step
        id of *system* (:meth:`TransactionSystem.step_id`)."""
        self.system = system
        known = system.scheduled_steps
        self.steps: list[ScheduledStep] = []
        ids: list[int | None] = []
        for item in steps:
            if isinstance(item, int):
                if not 0 <= item < len(known):
                    raise ScheduleError(f"the system has no step id {item}")
                number = item
                item = known[number]
            else:
                if not isinstance(item, ScheduledStep):
                    item = ScheduledStep(*item)
                number = system.step_id(item.transaction, item.step)
            self.steps.append(item)
            ids.append(number)
        self._validate(ids)

    # ------------------------------------------------------------------
    def _validate(self, ids: Sequence[int | None]) -> None:
        """*ids* are the global step ids of :attr:`steps`, ``None`` for
        an item that is no step of the system."""
        known = self.system.scheduled_steps
        position: list[int | None] = [None] * len(known)
        strangers: set[ScheduledStep] = set()
        for place, (number, item) in enumerate(zip(ids, self.steps)):
            if number is None:
                repeated = item in strangers
                strangers.add(item)
            else:
                repeated = position[number] is not None
                position[number] = place
            if repeated:
                raise ScheduleError("schedule repeats a step")
        if strangers or len(ids) != len(known):
            missing = [
                known[number]
                for number, place in enumerate(position)
                if place is None
            ]
            raise ScheduleError(
                f"schedule is not a total order of all steps "
                f"(missing={sorted(map(str, missing))[:5]}, "
                f"extra={sorted(map(str, strangers))[:5]})"
            )
        # (a) respects every transaction's partial order.
        for before, after in self.system.step_arcs:
            if position[before] > position[after]:
                raise ScheduleError(
                    f"schedule contradicts {known[before].transaction}: "
                    f"{known[before].step} must precede {known[after].step}"
                )
        # (b) two locks on x always separated by an unlock on x.
        holder: dict[str, str | None] = {}
        for item in self.steps:
            entity = item.step.entity
            if item.step.is_lock:
                current = holder.get(entity)
                if current is not None:
                    raise ScheduleError(
                        f"{item.transaction} locks {entity!r} while "
                        f"{current} still holds it"
                    )
                holder[entity] = item.transaction
            elif item.step.is_unlock:
                holder[entity] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ScheduledStep]:
        return iter(self.steps)

    def __str__(self) -> str:
        return " ".join(str(item) for item in self.steps)

    def position(self, transaction: str, step: Step) -> int:
        """Index of the given step in the schedule."""
        return self.steps.index(ScheduledStep(transaction, step))

    # ------------------------------------------------------------------
    def conflict_graph(self) -> DiGraph:
        """Arc ``Ti -> Tj`` iff some update of ``Ti`` on an entity
        precedes some update of ``Tj`` on the same entity."""
        return conflict_graph(
            [(item.transaction, item.step) for item in self.steps],
            self.system.names,
        )

    def is_serializable(self) -> bool:
        """Conflict-serializability: acyclic conflict graph."""
        return is_acyclic(self.conflict_graph())

    def is_serial(self) -> bool:
        """True iff transactions run one after another without overlap."""
        seen_complete: set[str] = set()
        current: str | None = None
        for item in self.steps:
            if item.transaction != current:
                if item.transaction in seen_complete:
                    return False
                if current is not None:
                    seen_complete.add(current)
                current = item.transaction
        return True

    def equivalent_serial_order(self) -> list[str] | None:
        """A serial order witnessing serializability, or ``None``."""
        graph = self.conflict_graph()
        if not is_acyclic(graph):
            return None
        from ..graphs import topological_sort

        return topological_sort(graph)


def conflict_graph(
    history: Sequence[tuple[str, Step]], names: Sequence[str]
) -> DiGraph:
    """Conflict graph of any step history (shared with the simulator).

    Only update steps access data, so only they generate conflicts; the
    lock steps merely constrain which histories are legal.
    """
    graph = DiGraph(names)
    updated_by: dict[str, set[str]] = {}
    for name, step in history:
        if not step.is_update:
            continue
        previous = updated_by.setdefault(step.entity, set())
        for other in previous:
            if other != name:
                graph.add_arc(other, name)
        previous.add(name)
    return graph


# ----------------------------------------------------------------------
# Exhaustive enumeration — the definitional ground truth
# ----------------------------------------------------------------------


class SearchBudgetExceeded(ScheduleError):
    """The exhaustive search visited more states than its budget allows."""


def _prefix_search(
    system: TransactionSystem,
    *,
    want_nonserializable: bool,
    state_budget: int,
) -> Iterator[list[int]]:
    """DFS over legal schedule prefixes, on global step ids.

    Yields complete schedules; when *want_nonserializable* is set, only
    non-serializable ones are yielded and memoization prunes states from
    which no non-serializable completion exists.  The memo key is the
    pair (executed steps, conflict arcs so far): together they determine
    both which continuations are legal and the final conflict graph.
    """
    items = system.scheduled_steps
    predecessor_masks: list[int] = []
    #: lock step id → id of its unlock (absent: never unlocked).
    unlock_of: dict[int, int] = {}
    for tx in system.transactions:
        offset = len(predecessor_masks)
        plan = tx.plan()
        predecessor_masks.extend(mask << offset for mask in plan.predecessors)
        for number, step in enumerate(plan.steps):
            unlock = tx.unlock_step(step.entity) if step.is_lock else None
            if unlock is not None:
                unlock_of[offset + number] = offset + plan.index[unlock]

    total_mask = (1 << len(items)) - 1
    visited: set[tuple[int, frozenset]] = set()
    states = 0

    def lock_holder(executed_mask: int) -> dict[str, str]:
        holders: dict[str, str] = {}
        for idx, item in enumerate(items):
            if not executed_mask >> idx & 1:
                continue
            if item.step.is_lock:
                unlock = unlock_of.get(idx)
                if unlock is None or not executed_mask >> unlock & 1:
                    holders[item.step.entity] = item.transaction
        return holders

    def search(
        executed_mask: int,
        prefix: list[int],
        conflicts: frozenset[tuple[str, str]],
        last_updater: dict[str, tuple[str, ...]],
    ) -> Iterator[list[int]]:
        nonlocal states
        states += 1
        if states > state_budget:
            raise SearchBudgetExceeded(
                f"exhaustive schedule search exceeded {state_budget} states"
            )
        if executed_mask == total_mask:
            graph = DiGraph(system.names, conflicts)
            if want_nonserializable:
                if not is_acyclic(graph):
                    yield list(prefix)
            else:
                yield list(prefix)
            return
        key = (executed_mask, conflicts)
        if want_nonserializable:
            if key in visited:
                return
            visited.add(key)
        holders = lock_holder(executed_mask)
        for idx, item in enumerate(items):
            if executed_mask >> idx & 1:
                continue
            if predecessor_masks[idx] & ~executed_mask:
                continue  # a predecessor within the transaction is pending
            if item.step.is_lock:
                holder = holders.get(item.step.entity)
                if holder is not None and holder != item.transaction:
                    continue  # lock held elsewhere
            new_conflicts = conflicts
            new_updaters = last_updater
            if item.step.is_update:
                previous = last_updater.get(item.step.entity, ())
                added = {
                    (other, item.transaction)
                    for other in previous
                    if other != item.transaction
                }
                if added - conflicts:
                    new_conflicts = conflicts | added
                if item.transaction not in previous:
                    new_updaters = dict(last_updater)
                    new_updaters[item.step.entity] = previous + (
                        item.transaction,
                    )
            prefix.append(idx)
            yield from search(
                executed_mask | (1 << idx), prefix, new_conflicts, new_updaters
            )
            prefix.pop()

    yield from search(0, [], frozenset(), {})


def all_legal_schedules(
    system: TransactionSystem,
    limit: int | None = None,
    state_budget: int = 2_000_000,
) -> Iterator[Schedule]:
    """Enumerate every legal schedule (use only on small systems)."""
    produced = 0
    for steps in _prefix_search(
        system, want_nonserializable=False, state_budget=state_budget
    ):
        yield Schedule(system, steps)
        produced += 1
        if limit is not None and produced >= limit:
            return


def find_nonserializable_schedule(
    system: TransactionSystem, state_budget: int = 2_000_000
) -> Schedule | None:
    """Search for a non-serializable legal schedule; ``None`` means the
    system is safe (this *is* the definition of safety)."""
    for steps in _prefix_search(
        system, want_nonserializable=True, state_budget=state_budget
    ):
        return Schedule(system, steps)
    return None
