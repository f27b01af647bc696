"""The incremental admission state machine.

An :class:`AdmissionRegistry` holds the set of transactions currently
*live* in the system and answers "may this transaction join?" with the
paper's decision procedure run **incrementally** (Proposition 2):

* condition (a) — every two-transaction subsystem safe — only the
  *new-vs-existing* pairs need vetting: every existing pair was vetted
  when its second member was admitted;
* condition (b) — for every directed cycle ``c`` of the interaction
  graph, ``B_c`` has a cycle — only the cycles **through the new
  transaction** need checking: every other cycle already existed (and
  eviction can only *remove* cycles, so the invariant survives
  departures).

Pair verdicts are looked up in a fingerprint-keyed LRU cache
(:mod:`repro.service.cache`) before any deciding happens, and cache
misses are decided inline, one pair after another.  A rejection never
mutates the registry and carries a replayable piece of evidence: the
failing pair's certificate or witness schedule, or the acyclic-``B_c``
interaction cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.entity import DistributedDatabase
from ..core.multi import BGraphKernel
from ..core.safety import SafetyVerdict, decide_safety
from ..core.schedule import TransactionSystem
from ..core.transaction import Transaction
from ..errors import AdmissionError, AdmissionTimeout, VettingBudgetError
from ..graphs import DiGraph, simple_cycles
from ..obs import trace
from .cache import CachedVerdict, VerdictCache
from .fingerprint import fingerprint_of, pair_key
from .stats import ServiceStats


@dataclass
class AdmissionDecision:
    """The registry's answer to one admission request."""

    admitted: bool
    name: str
    verdict: SafetyVerdict
    failing_pair: tuple[str, str] | None = None
    failing_cycle: tuple[str, ...] | None = None
    pairs_trivial: int = 0
    pairs_from_cache: int = 0
    pairs_vetted: int = 0
    cycles_checked: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly rendering (used by ``repro vet --json``)."""
        payload = {
            "admitted": self.admitted,
            "name": self.name,
            "verdict": self.verdict.to_dict(),
            "pairs_trivial": self.pairs_trivial,
            "pairs_from_cache": self.pairs_from_cache,
            "pairs_vetted": self.pairs_vetted,
            "cycles_checked": self.cycles_checked,
        }
        if self.failing_pair is not None:
            payload["failing_pair"] = list(self.failing_pair)
        if self.failing_cycle is not None:
            payload["failing_cycle"] = list(self.failing_cycle)
        return payload


@dataclass
class _Member:
    """Registry-internal record of one live transaction."""

    transaction: Transaction
    fingerprint: str
    locked: frozenset[str] = field(default_factory=frozenset)


class AdmissionRegistry:
    """Maintains the live transaction set and vets admissions."""

    def __init__(
        self,
        *,
        database: DistributedDatabase | None = None,
        cache: VerdictCache | None = None,
        stats: ServiceStats | None = None,
        cycle_limit: int | None = None,
        admission_timeout: float | None = None,
    ) -> None:
        """*database* may be fixed up front or adopted from the first
        admission.  *cache* may be shared between registries (that is
        how a warmed cache carries over); *cycle_limit* bounds the
        Proposition 2 cycle enumeration per admission (``None`` =
        exhaustive; hitting the bound raises
        :class:`~repro.errors.VettingBudgetError` rather than answering
        unsoundly); *admission_timeout* (seconds) bounds each
        admission's pair-vetting work — expiry raises
        :class:`~repro.errors.AdmissionTimeout` and leaves the registry
        unchanged."""
        self.database = database
        self.cache = cache if cache is not None else VerdictCache()
        self.stats = stats if stats is not None else ServiceStats()
        self.cycle_limit = cycle_limit
        self.admission_timeout = admission_timeout
        self._members: dict[str, _Member] = {}
        # entity name -> names of live members locking it, so vetting
        # touches only the newcomer's actual neighbours instead of
        # scanning the whole live set on every admission.
        self._by_entity: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    @property
    def names(self) -> list[str]:
        """Live transaction names, in admission order."""
        return list(self._members)

    def member(self, name: str) -> Transaction:
        """The live transaction called *name*."""
        try:
            return self._members[name].transaction
        except KeyError:
            raise AdmissionError(f"no live transaction named {name!r}") from None

    def system(self) -> TransactionSystem:
        """The current live set as a :class:`TransactionSystem`."""
        if self.database is None:
            raise AdmissionError(
                "registry has no database yet (nothing was ever admitted)"
            )
        return TransactionSystem(
            [member.transaction for member in self._members.values()],
            database=self.database,
        )

    def interaction_edges(self) -> list[tuple[str, str]]:
        """Undirected interaction-graph edges among live transactions."""
        members = list(self._members.items())
        edges = []
        for position, (first, record) in enumerate(members):
            for second, other in members[position + 1 :]:
                if record.locked & other.locked:
                    edges.append((first, second))
        return edges

    def stats_dict(self) -> dict:
        """Service counters, cache counters and size."""
        return {
            "live_transactions": len(self._members),
            "service": self.stats.as_dict(),
            "cache": self.cache.stats(),
        }

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def evict(self, name: str) -> Transaction:
        """Remove (and return) the live transaction *name*.

        Sound without rechecking anything: dropping a node only removes
        pairs and interaction cycles, and both Proposition 2 conditions
        are closed under taking subsystems of the checked set."""
        if name not in self._members:
            raise AdmissionError(f"cannot evict unknown transaction {name!r}")
        record = self._members.pop(name)
        for entity in record.locked:
            holders = self._by_entity[entity]
            holders.discard(name)
            if not holders:
                del self._by_entity[entity]
        self.stats.count("evicted")
        return record.transaction

    def admit(
        self, transaction: Transaction, *, want_certificate: bool = True
    ) -> AdmissionDecision:
        """Vet *transaction* against the live set; admit it if the
        extended system stays safe.

        Protocol mistakes (duplicate name, wrong database) raise
        :class:`AdmissionError`; an unsafe extension returns a rejection
        decision — with the failing pair's certificate or witness when
        *want_certificate* — and leaves the registry unchanged."""
        with trace.span("service.admit") as sp:
            if sp:
                sp.set(name=transaction.name, live=len(self._members))
            try:
                decision = self._admit(
                    transaction, want_certificate=want_certificate
                )
            except AdmissionTimeout:
                self.stats.count("admission_timeouts")
                if sp:
                    sp.set(timed_out=True)
                raise
            if sp:
                sp.set(admitted=decision.admitted)
            return decision

    def _admit(
        self, transaction: Transaction, *, want_certificate: bool
    ) -> AdmissionDecision:
        name = transaction.name
        if name in self._members:
            raise AdmissionError(
                f"a transaction named {name!r} is already live "
                "(evict it first or rename the newcomer)"
            )
        if self.database is None:
            self.database = transaction.database
        elif transaction.database != self.database:
            raise AdmissionError(
                f"transaction {name!r} uses a different database than "
                "the registry"
            )

        with self.stats.phase("fingerprint"):
            fingerprint = fingerprint_of(transaction)
            self.stats.count("fingerprints")
        locked = frozenset(transaction.locked_entities())
        decision = AdmissionDecision(
            admitted=False,
            name=name,
            verdict=SafetyVerdict(
                safe=True, method="admission", detail="pending"
            ),
        )

        rejection = self._vet_pairs(
            transaction, fingerprint, locked, decision, want_certificate
        )
        if rejection is None and len(self._members) >= 2:
            rejection = self._vet_cycles(transaction, locked, decision)
        if rejection is not None:
            self.stats.count("rejected")
            decision.verdict = rejection
            return decision

        self._members[name] = _Member(
            transaction=transaction, fingerprint=fingerprint, locked=locked
        )
        for entity in locked:
            self._by_entity.setdefault(entity, set()).add(name)
        self.stats.count("admitted")
        decision.admitted = True
        decision.verdict = SafetyVerdict(
            safe=True,
            method="admission",
            detail=(
                f"{name} admitted: {decision.pairs_trivial} trivial / "
                f"{decision.pairs_from_cache} cached / "
                f"{decision.pairs_vetted} vetted pairs safe, "
                f"{decision.cycles_checked} interaction cycles cyclic"
            ),
        )
        return decision

    def admit_system(
        self, system: TransactionSystem, *, want_certificate: bool = True
    ) -> list[AdmissionDecision]:
        """Admit every transaction of *system* in order; rejected ones
        are skipped (the rest are still tried)."""
        return [
            self.admit(transaction, want_certificate=want_certificate)
            for transaction in system.transactions
        ]

    def _shared_counts(self, locked: frozenset[str]) -> dict[str, int]:
        """For each live member sharing at least one entity of *locked*,
        how many entities it shares (via the entity index)."""
        counts: dict[str, int] = {}
        for entity in locked:
            for other in self._by_entity.get(entity, ()):
                counts[other] = counts.get(other, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Proposition 2, condition (a): new-vs-existing pairs
    # ------------------------------------------------------------------
    def _vet_pairs(
        self,
        transaction: Transaction,
        fingerprint: str,
        locked: frozenset[str],
        decision: AdmissionDecision,
        want_certificate: bool,
    ) -> SafetyVerdict | None:
        """Vet the newcomer against every live member.  Returns the
        rejection verdict, or ``None`` when all pairs are safe."""
        unsafe_partner: str | None = None
        to_vet: list[tuple[str, Transaction]] = []
        with self.stats.phase("pairs"):
            shared = self._shared_counts(locked)
            partners = [
                other for other, count in shared.items() if count >= 2
            ]
            # Members sharing fewer than two entities: D(Ti, Tj) has at
            # most one vertex, those pairs are trivially safe.
            trivial = len(self._members) - len(partners)
            decision.pairs_trivial += trivial
            self.stats.count("pairs_considered", len(self._members))
            self.stats.count("pairs_trivial", trivial)
            for other_name in partners:
                record = self._members[other_name]
                key = pair_key(fingerprint, record.fingerprint)
                cached = self.cache.get(key)
                if cached is not None:
                    decision.pairs_from_cache += 1
                    self.stats.count("pairs_from_cache")
                    if not cached.safe and unsafe_partner is None:
                        unsafe_partner = other_name
                    continue
                to_vet.append((other_name, record.transaction))
            if unsafe_partner is None and to_vet:
                deadline = (
                    None
                    if self.admission_timeout is None
                    else time.monotonic() + self.admission_timeout
                )
                verdicts: list[CachedVerdict] = []
                for _, other in to_vet:
                    if deadline is not None and time.monotonic() > deadline:
                        raise AdmissionTimeout(
                            f"pair vetting exceeded its admission timeout "
                            f"with {len(to_vet) - len(verdicts)} pairs left"
                        )
                    verdict = decide_safety(
                        TransactionSystem([transaction, other]),
                        want_certificate=False,
                    )
                    verdicts.append(
                        CachedVerdict(
                            verdict.safe, verdict.method, verdict.detail
                        )
                    )
                decision.pairs_vetted += len(to_vet)
                self.stats.count("pairs_vetted", len(to_vet))
                # Cached only once the whole batch is decided, so a
                # timed-out admission leaves the cache unchanged too.
                for (other_name, _), verdict in zip(to_vet, verdicts):
                    self.cache.put(
                        pair_key(
                            fingerprint,
                            self._members[other_name].fingerprint,
                        ),
                        verdict,
                    )
                    if not verdict.safe and unsafe_partner is None:
                        unsafe_partner = other_name
        if unsafe_partner is None:
            return None
        # Re-derive the full evidence from the live pair: certificates
        # and witness schedules mention concrete names, so they are
        # never cached — and only this one pair needs them.
        pair_system = TransactionSystem(
            [transaction, self._members[unsafe_partner].transaction]
        )
        evidence = decide_safety(
            pair_system, want_certificate=want_certificate
        )
        decision.failing_pair = (transaction.name, unsafe_partner)
        return SafetyVerdict(
            safe=False,
            method=evidence.method,
            detail=(
                f"pair {{{transaction.name}, {unsafe_partner}}} is "
                f"unsafe: {evidence.detail}"
            ),
            witness=evidence.witness,
            certificate=evidence.certificate,
        )

    # ------------------------------------------------------------------
    # Proposition 2, condition (b): cycles through the newcomer
    # ------------------------------------------------------------------
    def _vet_cycles(
        self,
        transaction: Transaction,
        locked: frozenset[str],
        decision: AdmissionDecision,
    ) -> SafetyVerdict | None:
        """Check every directed interaction cycle through the newcomer.
        Returns the rejection verdict, or ``None`` when all pass."""
        name = transaction.name
        with self.stats.phase("cycles"):
            adjacency = {name: set(self._shared_counts(locked))}
            if len(adjacency[name]) < 2:
                return None  # a cycle of length >= 3 needs two neighbours
            # Cycles through the newcomer stay inside its connected
            # component, so restrict the enumeration to it.
            component = {name}
            frontier = [name]
            while frontier:
                current = frontier.pop()
                neighbours = adjacency.get(current)
                if neighbours is None:
                    record = self._members[current]
                    neighbours = set(self._shared_counts(record.locked))
                    neighbours.discard(current)
                    if record.locked & locked:
                        neighbours.add(name)
                    adjacency[current] = neighbours
                for neighbour in neighbours:
                    if neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            # Insert arcs in sorted order: DiGraph adjacency is
            # insertion-ordered, so this keeps the cycle enumeration
            # (and therefore which cycles a cycle_limit sees) the same
            # across runs regardless of set/hash ordering.
            graph = DiGraph(sorted(component))
            for node in sorted(component):
                for neighbour in sorted(adjacency[node]):
                    graph.add_arc(node, neighbour)
                    graph.add_arc(neighbour, node)
            bodies = {
                member: record.transaction
                for member, record in self._members.items()
            }
            bodies[name] = transaction
            kernel = BGraphKernel(bodies)
            produced = checked = 0
            failing: list[str] | None = None
            for cycle in simple_cycles(graph, limit=self.cycle_limit):
                produced += 1
                if len(cycle) < 3 or name not in cycle:
                    continue  # pairs are condition (a); old cycles were checked
                checked += 1
                if not kernel.cycle_is_cyclic(cycle):
                    failing = cycle
                    break
            # Counted once per admission, on every way out of it.
            decision.cycles_checked += checked
            self.stats.count("cycles_checked", checked)
            if failing is not None:
                decision.failing_cycle = tuple(failing)
                return SafetyVerdict(
                    safe=False,
                    method="proposition-2",
                    detail=(
                        f"B_c is acyclic for the interaction-graph "
                        f"cycle {' -> '.join(failing)}"
                    ),
                )
            if self.cycle_limit is not None and produced >= self.cycle_limit:
                raise VettingBudgetError(
                    f"cycle enumeration hit its limit ({self.cycle_limit}) "
                    f"while vetting {name!r}; admission is undecided",
                    counters={
                        "pairs_trivial": decision.pairs_trivial,
                        "pairs_from_cache": decision.pairs_from_cache,
                        "pairs_vetted": decision.pairs_vetted,
                        "cycles_checked": decision.cycles_checked,
                    },
                )
        return None
