"""Distributed locked transactions, paper §2.

    "A transaction is a triple T = (S, A, e), where S is a set of steps,
    (S, A) is a partial order on S, and e: S → E is the modifies function
    [...] An important restriction is that transactions are totally
    ordered at each site."

A :class:`Transaction` couples a step set with a partial order and a
:class:`~repro.core.entity.DistributedDatabase`, and validates, on
construction, every structural rule the paper imposes:

* the precedence relation is a partial order (acyclic);
* steps on entities stored at the same site are totally ordered;
* locking discipline: at most one ``Lx``–``Ux`` pair per entity, the lock
  preceding the unlock, at least one update on ``x`` between them, and no
  update on ``x`` outside such a pair.

Use :class:`TransactionBuilder` to assemble transactions: it maintains
the per-site chains automatically (guaranteeing the total-order-per-site
restriction by construction) and accepts explicit cross-site precedences.
"""

from __future__ import annotations

import copy
import functools
from collections.abc import Iterable, Iterator, Sequence

from ..errors import LockingError, SiteOrderError, TransactionError
from ..posets import NotAPartialOrderError, Poset, linear_extensions
from .entity import DistributedDatabase
from .step import Step, StepKind


class StepPlan:
    """One transaction's steps as small ints, built once per transaction.

    A step's id is its insertion index.  Step-level code (schedule
    validation, witness construction, the exhaustive search, the
    cluster coordinator) works on these ids; ``Step`` objects are
    hashed once, here, and again only where steps enter or leave the
    program.
    """

    def __init__(self, steps: Sequence[Step], poset: Poset) -> None:
        #: id → step.
        self.steps = tuple(steps)
        #: step → id.
        self.index = {step: number for number, step in enumerate(steps)}
        index = self.index
        #: The given precedences as id pairs, in ``poset.arcs()`` order.
        self.arcs = tuple(
            (index[before], index[after]) for before, after in poset.arcs()
        )
        #: id → bitmask over ids of the step's strict predecessors:
        #: one pass in closure (topological) order, each step taking
        #: the union of its direct predecessors' sets.
        direct: list[list[int]] = [[] for _ in steps]
        for before, after in self.arcs:
            direct[after].append(before)
        closure = poset.closure()
        positions = [closure.position(step) for step in steps]
        masks = [0] * len(steps)
        for number in sorted(range(len(steps)), key=positions.__getitem__):
            mask = 0
            for before in direct[number]:
                mask |= masks[before] | 1 << before
            masks[number] = mask
        self.predecessors = tuple(masks)

    @functools.cached_property
    def predecessor_ids(self) -> tuple[tuple[int, ...], ...]:
        """id → ascending ids of the step's strict predecessors (the
        unpacked form of :attr:`predecessors`)."""
        count = len(self.steps)
        return tuple(
            tuple(other for other in range(count) if mask >> other & 1)
            for mask in self.predecessors
        )


class Transaction:
    """An immutable distributed locked transaction."""

    def __init__(
        self,
        name: str,
        database: DistributedDatabase,
        steps: Sequence[Step],
        precedences: Iterable[tuple[Step, Step]] = (),
        *,
        validate_locking: bool = True,
    ) -> None:
        if not name:
            raise TransactionError("transactions need a nonempty name")
        if len(set(steps)) != len(steps):
            raise TransactionError(f"{name}: duplicate steps in step list")
        self.name = name
        self.database = database
        self._steps = list(steps)
        try:
            self._poset = Poset(self._steps, precedences)
        except NotAPartialOrderError as exc:
            raise TransactionError(
                f"{name}: precedence relation is not a partial order ({exc})"
            ) from exc
        except KeyError as exc:
            raise TransactionError(f"{name}: {exc}") from exc
        self._validate_entities()
        self._validate_site_total_orders()
        if validate_locking:
            self._validate_locking()
        self._lock_steps = {
            step.entity: step for step in self._steps if step.is_lock
        }
        self._unlock_steps = {
            step.entity: step for step in self._steps if step.is_unlock
        }
        # What Definition 1 asks of a transaction, kept as ints: the
        # closure row of each ``Lx`` and the row bit of each ``Ux``.
        closure = self._poset.closure()
        self._lock_rows = {
            entity: closure.row(step)
            for entity, step in self._lock_steps.items()
        }
        self._unlock_bits = {
            entity: 1 << closure.position(step)
            for entity, step in self._unlock_steps.items()
        }
        self._plan = StepPlan(self._steps, self._poset)

    # ------------------------------------------------------------------
    # Validation of the paper's constraints
    # ------------------------------------------------------------------
    def _validate_entities(self) -> None:
        for step in self._steps:
            if step.entity not in self.database:
                raise TransactionError(
                    f"{self.name}: step {step} touches entity "
                    f"{step.entity!r} not in the database"
                )

    def _validate_site_total_orders(self) -> None:
        by_site: dict[int, list[Step]] = {}
        for step in self._steps:
            by_site.setdefault(self.database.site_of(step.entity), []).append(step)
        closure = self._poset.closure()
        for site, site_steps in by_site.items():
            # In closure (topological) order a chain is exactly a
            # sequence whose every neighbour pair is ordered; the
            # pairwise scan only names the offending pair.
            chain = sorted(site_steps, key=closure.position)
            if all(map(closure.reaches, chain, chain[1:])):
                continue
            for i, a in enumerate(site_steps):
                for b in site_steps[i + 1 :]:
                    if not self._poset.comparable(a, b):
                        raise SiteOrderError(
                            f"{self.name}: steps {a} and {b} are both at "
                            f"site {site} but are unordered"
                        )

    def _validate_locking(self) -> None:
        locks: dict[str, list[Step]] = {}
        unlocks: dict[str, list[Step]] = {}
        updates: dict[str, list[Step]] = {}
        for step in self._steps:
            bucket = {
                StepKind.LOCK: locks,
                StepKind.UNLOCK: unlocks,
                StepKind.UPDATE: updates,
            }[step.kind]
            bucket.setdefault(step.entity, []).append(step)
        for entity, steps in locks.items():
            if len(steps) > 1:
                raise LockingError(
                    f"{self.name}: more than one lock step on {entity!r}"
                )
        for entity, steps in unlocks.items():
            if len(steps) > 1:
                raise LockingError(
                    f"{self.name}: more than one unlock step on {entity!r}"
                )
        for entity in set(locks) ^ set(unlocks):
            raise LockingError(
                f"{self.name}: entity {entity!r} has a lock or unlock step "
                "without its partner (steps appear only as Lx-Ux pairs)"
            )
        for entity in locks:
            lock_step, unlock_step = locks[entity][0], unlocks[entity][0]
            if not self._poset.precedes(lock_step, unlock_step):
                raise LockingError(
                    f"{self.name}: L{entity} does not precede U{entity}"
                )
            between = [
                upd
                for upd in updates.get(entity, [])
                if self._poset.precedes(lock_step, upd)
                and self._poset.precedes(upd, unlock_step)
            ]
            if not between:
                raise LockingError(
                    f"{self.name}: no update step on {entity!r} between "
                    f"L{entity} and U{entity} (superfluous locking)"
                )
        for entity, steps in updates.items():
            if entity not in locks:
                raise LockingError(
                    f"{self.name}: update on {entity!r} without a "
                    "surrounding lock-unlock pair"
                )
            lock_step, unlock_step = locks[entity][0], unlocks[entity][0]
            for upd in steps:
                if not (
                    self._poset.precedes(lock_step, upd)
                    and self._poset.precedes(upd, unlock_step)
                ):
                    raise LockingError(
                        f"{self.name}: update {upd} not surrounded by "
                        f"L{entity}-U{entity}"
                    )

    # ------------------------------------------------------------------
    # Step and order queries
    # ------------------------------------------------------------------
    @property
    def steps(self) -> list[Step]:
        """All steps, in insertion order."""
        return list(self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __contains__(self, step: Step) -> bool:
        return step in self._poset

    def __repr__(self) -> str:
        return f"Transaction({self.name!r}, steps={len(self._steps)})"

    def poset(self) -> Poset:
        """The step partial order (the pair ``(S, A)`` of the paper)."""
        return self._poset

    def plan(self) -> StepPlan:
        """The integer step plan (ids, arcs, predecessor masks)."""
        return self._plan

    def precedes(self, a: Step, b: Step) -> bool:
        """Strict precedence in the transaction's partial order
        (the paper's ``a >_i b`` notation, transitively closed)."""
        return self._poset.precedes(a, b)

    def concurrent(self, a: Step, b: Step) -> bool:
        """True iff the two steps are unordered ("steps can be
        concurrent", §4)."""
        return self._poset.concurrent(a, b)

    def lock_step(self, entity: str) -> Step | None:
        """The unique ``L entity`` step, if any."""
        return self._lock_steps.get(entity)

    def unlock_step(self, entity: str) -> Step | None:
        """The unique ``U entity`` step, if any."""
        return self._unlock_steps.get(entity)

    def locked_entities(self) -> list[str]:
        """Entities this transaction locks (and therefore updates)."""
        return list(self._lock_steps)

    def locks_before_unlocks(self, entities: Sequence[str]) -> list[int]:
        """For each ``x`` of *entities* (all locked here), the set
        ``{y ≠ x : Lx precedes Uy}`` as a bitset over positions in
        *entities* — one AND of two cached ints per ``(x, y)``, no step
        is hashed.  Both halves of Definition 1's arc condition and the
        exact decider's realizability test read these sets."""
        unlock_bits = [self._unlock_bits[entity] for entity in entities]
        before = []
        for position, entity in enumerate(entities):
            row = self._lock_rows[entity]
            members = 0
            for other, bit in enumerate(unlock_bits):
                if row & bit:
                    members |= 1 << other
            before.append(members & ~(1 << position))
        return before

    def update_steps(self, entity: str | None = None) -> list[Step]:
        """Update steps, optionally restricted to one entity."""
        return [
            step
            for step in self._steps
            if step.is_update and (entity is None or step.entity == entity)
        ]

    def sites_used(self) -> set[int]:
        """The sites at which this transaction has steps."""
        return {
            self.database.site_of(step.entity) for step in self._steps
        }

    def steps_at_site(self, site: int) -> list[Step]:
        """The steps at *site*, in their (total) site order."""
        site_steps = [
            step
            for step in self._steps
            if self.database.site_of(step.entity) == site
        ]
        site_steps.sort(
            key=lambda step: sum(
                1 for other in site_steps if self._poset.precedes(other, step)
            )
        )
        return site_steps

    def is_totally_ordered(self) -> bool:
        """True iff the transaction is a chain (centralized-style)."""
        return self._poset.is_total()

    # ------------------------------------------------------------------
    # Derived transactions and extensions
    # ------------------------------------------------------------------
    def renamed(self, name: str) -> "Transaction":
        """The same program under another name: a new instance sharing
        this one's (immutable) steps, poset and step plan, so nothing is
        rebuilt or re-validated."""
        if not name:
            raise TransactionError("transactions need a nonempty name")
        clone = copy.copy(self)
        clone.name = name
        return clone

    def with_precedences(
        self, extra: Iterable[tuple[Step, Step]]
    ) -> "Transaction":
        """This transaction strengthened with extra precedences — the
        ``T' = T + (a before b)`` operation the Theorem 2 closure uses.
        Raises :class:`TransactionError` if the result is cyclic."""
        return Transaction(
            self.name,
            self.database,
            self._steps,
            list(self._poset.arcs()) + list(extra),
        )

    def linear_extensions(
        self, limit: int | None = None
    ) -> Iterator[list[Step]]:
        """Enumerate the total orders ``t ∈ T`` (paper §2: a transaction
        can be thought of as the set of total orders compatible with it)."""
        return linear_extensions(self._poset, limit=limit)

    def a_linear_extension(self, key=None) -> list[Step]:
        """One linear extension, optionally greedy on *key* (used by the
        certificate construction's priority topological sorts)."""
        return self._poset.a_linear_extension(key=key)

    def is_linear_extension(self, order: Sequence[Step]) -> bool:
        """Is *order* a total order compatible with this transaction?"""
        return self._poset.is_linear_extension(order)

    def canonical_form(self) -> tuple:
        """A deterministic, name-independent description of the
        transaction's structure: its steps (with the site each entity is
        stored at) and the full strict precedence relation, both in a
        canonical sort order.

        Two transactions have equal canonical forms iff they perform the
        same steps on the same entities (stored at the same sites) under
        the same partial order — regardless of transaction name, step
        insertion order, or which generating arcs were supplied.  Safety
        of a pair depends only on the canonical forms of its members,
        which is what makes the form usable as a verdict-sharing cache
        key (:mod:`repro.service.fingerprint`).
        """
        encode = {
            step: (step.kind.value, step.entity, step.seq)
            for step in self._steps
        }
        steps = tuple(sorted(encode.values()))
        sites = tuple(
            sorted(
                (entity, self.database.site_of(entity))
                for entity in {step.entity for step in self._steps}
            )
        )
        order = tuple(
            sorted(
                (encode[a], encode[b])
                for a in self._steps
                for b in self._steps
                if a != b and self._poset.precedes(a, b)
            )
        )
        return (steps, sites, order)

    def describe(self) -> str:
        """Human-readable rendering: per-site chains plus cross-site arcs."""
        lines = [f"Transaction {self.name}"]
        for site in sorted(self.sites_used()):
            chain = " -> ".join(str(step) for step in self.steps_at_site(site))
            lines.append(f"  site {site}: {chain}")
        cover = self._poset.cover_graph()
        cross = [
            f"  {tail} -> {head}"
            for tail, head in cover.arcs()
            if not self.database.same_site(tail.entity, head.entity)
        ]
        if cross:
            lines.append("  cross-site precedences:")
            lines.extend(cross)
        return "\n".join(lines)


class TransactionBuilder:
    """Incremental construction of a :class:`Transaction`.

    Steps appended through :meth:`lock` / :meth:`update` / :meth:`unlock`
    are automatically chained after the previous step *at the same site*,
    so the per-site total-order restriction holds by construction.
    Cross-site orderings are added with :meth:`precede`.
    """

    def __init__(self, name: str, database: DistributedDatabase) -> None:
        self.name = name
        self.database = database
        self._steps: list[Step] = []
        self._precedences: list[tuple[Step, Step]] = []
        self._site_tail: dict[int, Step] = {}
        self._update_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _append(self, step: Step) -> Step:
        if step in self._steps:
            raise TransactionError(
                f"{self.name}: step {step} added twice"
            )
        site = self.database.site_of(step.entity)
        previous = self._site_tail.get(site)
        self._steps.append(step)
        if previous is not None:
            self._precedences.append((previous, step))
        self._site_tail[site] = step
        return step

    def lock(self, entity: str) -> Step:
        """Append ``L entity`` at the entity's site."""
        return self._append(Step(StepKind.LOCK, entity))

    def unlock(self, entity: str) -> Step:
        """Append ``U entity`` at the entity's site."""
        return self._append(Step(StepKind.UNLOCK, entity))

    def update(self, entity: str) -> Step:
        """Append an update step at the entity's site."""
        seq = self._update_counts.get(entity, 0)
        self._update_counts[entity] = seq + 1
        return self._append(Step(StepKind.UPDATE, entity, seq))

    def access(self, entity: str) -> tuple[Step, Step, Step]:
        """Convenience: ``L entity; update entity; U entity`` in a row."""
        return self.lock(entity), self.update(entity), self.unlock(entity)

    def precede(self, before: Step, after: Step) -> None:
        """Record the (typically cross-site) precedence *before* → *after*."""
        self._precedences.append((before, after))

    def build(self, *, validate_locking: bool = True) -> Transaction:
        """Validate everything and produce the immutable transaction."""
        return Transaction(
            self.name,
            self.database,
            self._steps,
            self._precedences,
            validate_locking=validate_locking,
        )
