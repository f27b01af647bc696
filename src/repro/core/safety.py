"""Safety deciders for locked transaction systems.

The paper's landscape, implemented:

=====================  ===========================  =====================
situation              decider                      paper result
=====================  ===========================  =====================
any sites, pair        ``is_safe_sufficient``       Theorem 1 (one-sided)
one or two sites       ``is_safe_two_site``         Theorem 2, Corollary 1
any sites, pair        ``decide_safety_exact``      exact; exponential
                                                    only in dominator
                                                    structure (coNP-hard
                                                    in general, Theorem 3)
any system (ground     ``decide_safety_exhaustive``  definition of safety
truth)
many transactions      :mod:`repro.core.multi`      Proposition 2
=====================  ===========================  =====================

``decide_safety`` picks the strongest applicable method and returns a
:class:`SafetyVerdict` carrying a machine-checkable witness: an
:class:`~repro.core.certificates.UnsafenessCertificate` or explicit
non-serializable schedule when unsafe, the strong-connectivity /
dominator-exhaustion argument when safe.

The exact decider implements the bit-vector argument from Theorem 1's
proof, run in reverse (DESIGN.md §2.3): a pair system is unsafe iff some
*mixed* bit vector ``b`` over the shared entities is realizable, i.e. the
digraph ``T1 ∪ T2 ∪ arcs(b)`` is acyclic, where ``arcs(b)`` orders, per
entity, the earlier transaction's unlock before the later one's lock —
tested on the ``k`` shared entities, not the ``n`` steps
(:meth:`~repro.core.dgraph.PairLockOrder.realizable`).
Realizability forces ``b`` to be monotone along ``D(T1, T2)``, so only
zero-sets that are **dominators** (Definition 2) need enumeration — the
same objects the paper's Theorem 3 reduction manipulates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

from ..errors import CertificateError, TransactionError
from ..graphs import topological_order
from ..obs import metrics, trace
from .certificates import UnsafenessCertificate, certificate_from_dominator
from .closure import ClosureContradiction
from .dgraph import PairLockOrder
from .schedule import (
    Schedule,
    ScheduledStep,
    TransactionSystem,
    find_nonserializable_schedule,
)
from .transaction import Transaction

Method = Literal[
    "trivial",
    "theorem-1",
    "theorem-2",
    "lemma-1",
    "exact-bit-vector",
    "exhaustive",
    "proposition-2",
    "admission",
    "budget-exceeded",
]


@dataclass
class SafetyVerdict:
    """The outcome of a safety decision, with its evidence."""

    safe: bool
    method: Method
    detail: str
    witness: Schedule | None = None
    certificate: UnsafenessCertificate | None = None

    def __bool__(self) -> bool:  # truthiness == safety
        return self.safe

    def record(self) -> "SafetyVerdict":
        """Count this verdict in the process metrics registry."""
        metrics.REGISTRY.counter(
            "repro_decisions_total",
            "safety verdicts by deciding method",
        ).labels(method=self.method, safe=str(self.safe).lower()).inc()
        return self

    def to_dict(self) -> dict:
        """JSON-serializable rendering (used by ``repro analyze --json``)."""
        payload: dict = {
            "safe": self.safe,
            "method": self.method,
            "detail": self.detail,
        }
        if self.witness is not None:
            payload["witness"] = [
                {"transaction": item.transaction, "step": str(item.step)}
                for item in self.witness.steps
            ]
        if self.certificate is not None:
            payload["certificate"] = {
                "dominator": sorted(self.certificate.dominator),
                "bits": dict(sorted(self.certificate.bits.items())),
                "t1": [str(step) for step in self.certificate.t1],
                "t2": [str(step) for step in self.certificate.t2],
            }
        return payload


def _traced_verdict(span_name: str):
    """Wrap a verdict-returning decider in a :func:`repro.obs.trace.span`
    carrying the method rung that fired and the safe bit.  While tracing
    is off the wrapper is one extra call and a falsy check."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.tracing_enabled():
                return fn(*args, **kwargs)
            with trace.span(span_name) as sp:
                verdict = fn(*args, **kwargs)
                sp.set(method=verdict.method, safe=verdict.safe)
                return verdict

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Theorem 1 — sufficiency at any number of sites
# ----------------------------------------------------------------------


def is_safe_sufficient(first: Transaction, second: Transaction) -> bool | None:
    """Theorem 1: strongly connected ``D(T1, T2)`` ⇒ safe.

    Returns ``True`` (provably safe) or ``None`` (criterion silent — the
    system may still be safe, cf. Fig. 5).
    """
    if PairLockOrder(first, second).strongly_connected():
        return True
    return None


# ----------------------------------------------------------------------
# Theorem 2 / Corollary 1 — two sites, O(n^2)
# ----------------------------------------------------------------------


def sites_of_pair(first: Transaction, second: Transaction) -> set[int]:
    """The sites the pair actually uses."""
    return first.sites_used() | second.sites_used()


def is_safe_two_site(first: Transaction, second: Transaction) -> bool:
    """Theorem 2: at one or two sites, safe ⟺ ``D`` strongly connected.

    Raises :class:`TransactionError` when the pair spans more than two
    sites: the criterion is then only sufficient (Fig. 5), so answering
    from it would be unsound.
    """
    used = sites_of_pair(first, second)
    if len(used) > 2:
        raise TransactionError(
            f"is_safe_two_site needs a pair on at most two sites; this "
            f"pair uses sites {sorted(used)} (use decide_safety_exact)"
        )
    return PairLockOrder(first, second).strongly_connected()


# ----------------------------------------------------------------------
# Exact decider — any number of sites
# ----------------------------------------------------------------------


def realizing_schedule(
    first: Transaction, second: Transaction, bits: dict[str, int]
) -> Schedule:
    """The legal schedule realizing the bit vector *bits* over the
    shared entities: the insertion-order topological sort of
    ``T1 ∪ T2 ∪ arcs(bits)``.

    ``bits[x] = 0`` ⇒ ``U1x`` before ``L2x`` (transaction 1 first);
    ``bits[x] = 1`` ⇒ ``U2x`` before ``L1x``.  The sort
    (:func:`~repro.graphs.topological_order`, smallest id first) runs
    on the pair system's global step ids (``T1`` then ``T2``, each in
    insertion order), which :class:`Schedule` validates as they are.
    Raises :class:`~repro.graphs.CycleError` when *bits* is not
    realizable (:meth:`~repro.core.dgraph.PairLockOrder.realizable`
    tells, far cheaper).
    """
    system = TransactionSystem([first, second])
    arcs = list(system.step_arcs)
    for entity, bit in bits.items():
        earlier, later = (first, second) if bit == 0 else (second, first)
        arcs.append(
            (
                system.step_id(earlier.name, earlier.unlock_step(entity)),
                system.step_id(later.name, later.lock_step(entity)),
            )
        )
    return Schedule(system, topological_order(system.total_steps(), arcs))


@_traced_verdict("safety.exact")
def decide_safety_exact(
    first: Transaction, second: Transaction, *, dominator_limit: int | None = None
) -> SafetyVerdict:
    """Exact safety decision for a pair at any number of sites.

    Enumerates dominators ``X`` of ``D(T1, T2)`` as candidate zero-sets
    of the schedule bit vector and checks realizability by acyclicity.
    The first realizable mixed vector yields an explicit
    non-serializable schedule; exhausting all dominators proves safety.

    Worst-case exponential in the number of SCCs of ``D`` — necessarily
    so unless P = NP (Theorem 3).
    """
    order = PairLockOrder(first, second)
    shared = order.entities
    if len(shared) < 2:
        return SafetyVerdict(
            safe=True,
            method="trivial",
            detail=(
                f"only {len(shared)} entity(ies) locked by both "
                "transactions: no two rectangles to separate"
            ),
        )
    with trace.span("safety.d_graph") as sp:
        connected = order.strongly_connected()
        if sp:
            sp.set(shared_entities=len(shared), strongly_connected=connected)
    if connected:
        return SafetyVerdict(
            safe=True,
            method="theorem-1",
            detail="D(T1, T2) is strongly connected",
        )
    with trace.span("safety.dominators") as sp:
        checked = 0
        found: int | None = None
        truncated = False
        # One dominator past the limit is asked for and never tested:
        # its existence is what tells a cut-off search from a finished one.
        for zeros in order.dominators(
            limit=None if dominator_limit is None else dominator_limit + 1
        ):
            if checked == dominator_limit:
                truncated = True
                break
            checked += 1
            if order.realizable(zeros):
                found = zeros
                break
        if sp:
            components = order.components()
            sp.set(
                dominators_checked=checked,
                realizable=found is not None,
                scc_count=len(components),
                scc_max_size=max(c.bit_count() for c in components),
            )
    if found is not None:
        bits = {
            entity: 0 if found >> position & 1 else 1
            for position, entity in enumerate(shared)
        }
        witness = realizing_schedule(first, second, bits)
        assert not witness.is_serializable(), (
            "realizable mixed bit vector must yield a "
            "non-serializable schedule"
        )
        zero_set = sorted(entity for entity, bit in bits.items() if bit == 0)
        return SafetyVerdict(
            safe=False,
            method="exact-bit-vector",
            detail=(
                f"dominator {zero_set} is realizable: "
                "witness schedule attached"
            ),
            witness=witness,
        )
    if truncated:
        raise TransactionError(
            f"dominator enumeration hit its limit ({dominator_limit}) "
            "before exhausting the search; safety is undecided"
        )
    return SafetyVerdict(
        safe=True,
        method="exact-bit-vector",
        detail=(
            f"no realizable mixed bit vector among {checked} dominators "
            "of D(T1, T2)"
        ),
    )


@_traced_verdict("safety.lemma1")
def decide_safety_via_lemma_1(
    first: Transaction,
    second: Transaction,
    *,
    pair_limit: int | None = 200_000,
) -> SafetyVerdict:
    """Lemma 1, run literally: ``{T1, T2}`` is safe iff every pair of
    linear extensions ``(t1, t2)`` is safe — each pair decided by the
    centralized criterion (strong connectivity of ``D(t1, t2)``, via
    the near-linear implicit test).

    Exponential in the number of extensions; a third, independently
    derived exact decider used for cross-validation.  *pair_limit*
    guards runaway inputs (raises :class:`TransactionError` when hit).
    """
    from .fastcheck import is_safe_total_orders_fast
    from .geometry import GeometricPicture

    checked = 0
    for t1 in first.linear_extensions():
        for t2 in second.linear_extensions():
            checked += 1
            if pair_limit is not None and checked > pair_limit:
                raise TransactionError(
                    f"Lemma 1 enumeration exceeded {pair_limit} extension "
                    "pairs; use decide_safety_exact"
                )
            if not is_safe_total_orders_fast(t1, t2):
                picture = GeometricPicture(t1, t2)
                curve = picture.find_nonserializable_curve()
                witness = None
                if curve is not None:
                    system = TransactionSystem([first, second])
                    names = {1: first.name, 2: second.name}
                    witness = Schedule(
                        system,
                        [
                            ScheduledStep(names[axis], step)
                            for axis, step in picture.schedule_steps_of_curve(
                                curve
                            )
                        ],
                    )
                return SafetyVerdict(
                    safe=False,
                    method="lemma-1",
                    detail=(
                        f"extension pair #{checked} is unsafe "
                        "(D(t1, t2) not strongly connected)"
                    ),
                    witness=witness,
                )
    return SafetyVerdict(
        safe=True,
        method="lemma-1",
        detail=f"all {checked} extension pairs are safe",
    )


def decide_safety_exact_naive(
    first: Transaction, second: Transaction
) -> SafetyVerdict:
    """Ablation reference: the exact decider WITHOUT the dominator
    pruning — try all ``2^k`` bit vectors over the shared entities.

    Exists to quantify (benchmark ``A2``) how much the paper's dominator
    structure buys: the pruned decider enumerates only the
    ancestor-closed zero-sets of ``D(T1, T2)``, the naive one every
    subset.  Verdicts are always identical (tested).
    """
    order = PairLockOrder(first, second)
    shared = order.entities
    if len(shared) < 2:
        return SafetyVerdict(
            safe=True,
            method="trivial",
            detail="fewer than two shared entities",
        )
    everything = (1 << len(shared)) - 1
    checked = 0
    for ones in range(1, everything):  # mixed vectors only
        # zero-set = entities with bit 0; any mixed vector qualifies.
        checked += 1
        if order.realizable(everything ^ ones):
            bits = {
                entity: (ones >> position) & 1
                for position, entity in enumerate(shared)
            }
            return SafetyVerdict(
                safe=False,
                method="exact-bit-vector",
                detail=f"naive enumeration: vector #{checked} realizable",
                witness=realizing_schedule(first, second, bits),
            )
    return SafetyVerdict(
        safe=True,
        method="exact-bit-vector",
        detail=f"naive enumeration: none of {checked} mixed vectors realizable",
    )


# ----------------------------------------------------------------------
# Exhaustive ground truth
# ----------------------------------------------------------------------


@_traced_verdict("safety.exhaustive")
def decide_safety_exhaustive(
    system: TransactionSystem, state_budget: int = 2_000_000
) -> SafetyVerdict:
    """Decide safety straight from the definition by searching every
    legal schedule.  Exponential; the cross-validation ground truth."""
    witness = find_nonserializable_schedule(system, state_budget=state_budget)
    if witness is None:
        return SafetyVerdict(
            safe=True,
            method="exhaustive",
            detail="every legal schedule is serializable",
        )
    return SafetyVerdict(
        safe=False,
        method="exhaustive",
        detail="found a non-serializable legal schedule",
        witness=witness,
    )


# ----------------------------------------------------------------------
# Unified front end
# ----------------------------------------------------------------------


def decide_safety(
    system: TransactionSystem, *, want_certificate: bool = True
) -> SafetyVerdict:
    """Decide safety with the strongest applicable method.

    * pair on ≤ 2 sites — Theorem 2 with, if unsafe and requested, a full
      :class:`UnsafenessCertificate` built by the constructive proof;
    * pair on ≥ 3 sites — Theorem 1 fast path, else the exact decider;
    * ≥ 3 transactions — Proposition 2 (:mod:`repro.core.multi`).

    Every call is observable: the rung of the ladder that fired lands in
    the ``repro_decisions_total`` metric (labelled by method and
    verdict) and, when tracing is on, in a ``safety.decide`` span.
    """
    with trace.span("safety.decide") as sp:
        verdict = _decide_safety_ladder(
            system, want_certificate=want_certificate
        )
        if sp:
            sp.set(
                method=verdict.method,
                safe=verdict.safe,
                transactions=len(system),
            )
    return verdict.record()


def _decide_safety_ladder(
    system: TransactionSystem, *, want_certificate: bool
) -> SafetyVerdict:
    """The method ladder behind :func:`decide_safety`."""
    if len(system) > 2:
        from .multi import decide_safety_multi

        return decide_safety_multi(system)
    if len(system) == 0:
        return SafetyVerdict(
            safe=True,
            method="trivial",
            detail="an empty system has no schedules to mis-serialize",
        )
    if len(system) == 1:
        return SafetyVerdict(
            safe=True,
            method="trivial",
            detail="a single transaction is always serializable",
        )
    first, second = system.pair()
    used = sites_of_pair(first, second)
    if len(used) <= 2:
        if PairLockOrder(first, second).strongly_connected():
            return SafetyVerdict(
                safe=True,
                method="theorem-2",
                detail=(
                    f"pair on sites {sorted(used)}: D(T1, T2) strongly "
                    "connected ⟺ safe"
                ),
            )
        verdict = SafetyVerdict(
            safe=False,
            method="theorem-2",
            detail=(
                f"pair on sites {sorted(used)}: D(T1, T2) not strongly "
                "connected ⟺ unsafe"
            ),
        )
        if want_certificate:
            try:
                with trace.span("safety.certificate"):
                    verdict.certificate = certificate_from_dominator(
                        first, second
                    )
                verdict.witness = verdict.certificate.schedule
            except (CertificateError, ClosureContradiction) as exc:
                raise AssertionError(
                    "Theorem 2 guarantees a certificate at two sites; "
                    f"construction failed: {exc}"
                ) from exc
        return verdict
    return decide_safety_exact(first, second)
