"""Many-transaction systems — Section 6 / Proposition 2 of the paper.

For a distributed system ``T = {T1, ..., Tk}``:

* ``G`` is the (undirected) *interaction graph*: an edge ``[Ti, Tj]`` iff
  the two transactions lock-unlock a common entity;
* for each directed length-two path ``(Ti, Tj, Tk)`` of ``G``, the digraph
  ``B_ijk`` has a node ``x_ij`` for each entity ``x`` locked by ``Ti`` and
  ``Tj``, a node ``y_jk`` for each entity ``y`` locked by ``Tj`` and
  ``Tk``, and arcs (all read off the *middle* transaction ``Tj``):

  - ``(x_ij, y_jk)``  iff ``Lx`` precedes ``Uy``  in ``Tj``,
  - ``(x_ij, x'_ij)`` iff ``Lx`` precedes ``Lx'`` in ``Tj``,
  - ``(y_jk, y'_jk)`` iff ``Uy`` precedes ``Uy'`` in ``Tj``.

Proposition 2: **T is safe iff (a) every two-transaction subsystem is
safe, and (b) for each directed cycle ``c`` of ``G``, the union ``B_c``
of the ``B_ijk`` over the consecutive triples of ``c`` has a cycle.**

Nodes are shared between consecutive triples through their
``(entity, {i, j})`` identity, so the union is well defined.  Directed
cycles of length two are the two-transaction subsystems themselves and
are covered by condition (a); the enumeration in
:func:`decide_safety_multi` therefore ranges over directed cycles of
length at least three (each undirected cycle in both traversal
directions, since ``B_ijk`` depends on the direction).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ..graphs import DiGraph, simple_cycles
from ..obs import trace
from .schedule import TransactionSystem
from .transaction import Transaction


def interaction_graph(system: TransactionSystem) -> DiGraph:
    """``G`` as a symmetric digraph (edge = arcs both ways)."""
    graph = DiGraph(system.names)
    transactions = system.transactions
    for i, first in enumerate(transactions):
        locked_first = set(first.locked_entities())
        for second in transactions[i + 1 :]:
            if locked_first & set(second.locked_entities()):
                graph.add_arc(first.name, second.name)
                graph.add_arc(second.name, first.name)
    return graph


BNode = tuple[str, frozenset[str]]


def b_graph_of_triple(
    left: Transaction, middle: Transaction, right: Transaction
) -> DiGraph:
    """``B_ijk`` for the directed path ``(left, middle, right)``."""
    pair_lm = frozenset({left.name, middle.name})
    pair_mr = frozenset({middle.name, right.name})
    shared_lm = sorted(
        set(left.locked_entities()) & set(middle.locked_entities())
    )
    shared_mr = sorted(
        set(middle.locked_entities()) & set(right.locked_entities())
    )
    graph = DiGraph()
    for entity in shared_lm:
        graph.add_node((entity, pair_lm))
    for entity in shared_mr:
        graph.add_node((entity, pair_mr))
    # (x_ij, y_jk) iff Lx precedes Uy in Tj.
    for x in shared_lm:
        lock_x = middle.lock_step(x)
        for y in shared_mr:
            if middle.precedes(lock_x, middle.unlock_step(y)):
                graph.add_arc((x, pair_lm), (y, pair_mr))
    # (x_ij, x'_ij) iff Lx precedes Lx' in Tj.
    for x in shared_lm:
        for x2 in shared_lm:
            if x != x2 and middle.precedes(
                middle.lock_step(x), middle.lock_step(x2)
            ):
                graph.add_arc((x, pair_lm), (x2, pair_lm))
    # (y_jk, y'_jk) iff Uy precedes Uy' in Tj.
    for y in shared_mr:
        for y2 in shared_mr:
            if y != y2 and middle.precedes(
                middle.unlock_step(y), middle.unlock_step(y2)
            ):
                graph.add_arc((y, pair_mr), (y2, pair_mr))
    return graph


def b_graph_of_cycle(
    system: TransactionSystem, cycle: Sequence[str]
) -> DiGraph:
    """``B_c``: the union of ``B_ijk`` over all consecutive triples of the
    directed cycle *cycle* (given without the repeated final node)."""
    union = DiGraph()
    length = len(cycle)
    for index in range(length):
        left = system[cycle[index]]
        middle = system[cycle[(index + 1) % length]]
        right = system[cycle[(index + 2) % length]]
        triple = b_graph_of_triple(left, middle, right)
        for node in triple.nodes():
            union.add_node(node)
        for tail, head in triple.arcs():
            union.add_arc(tail, head)
    return union


BArc = tuple[BNode, BNode]


class BGraphKernel:
    """Condition (b) for many cycles over one set of transactions.

    ``B_ijk`` depends only on its ordered triple, and the directed
    cycles of one interaction graph share most of their triples, so the
    kernel derives each triple's arcs from the middle transaction's
    order **once** and pays only a union and an acyclicity pass per
    cycle.  *transactions* is any ``name -> Transaction`` lookup (a
    ``dict``, a :class:`TransactionSystem`); its bodies must not change
    while the kernel is alive, so a kernel lives no longer than the
    cycle enumeration it serves.

    :func:`b_graph_of_triple` and :func:`b_graph_of_cycle` remain the
    ``DiGraph``-returning reference the kernel is tested against.
    """

    def __init__(
        self, transactions: Mapping[str, Transaction] | TransactionSystem
    ) -> None:
        self._transactions = transactions
        self._triples: dict[tuple[str, str, str], tuple[BArc, ...]] = {}

    def triple_arcs(self, left: str, middle: str, right: str) -> tuple[BArc, ...]:
        """The arcs of ``B_ijk`` for the directed path ``(left, middle,
        right)`` (the arc set of :func:`b_graph_of_triple`)."""
        key = (left, middle, right)
        arcs = self._triples.get(key)
        if arcs is not None:
            return arcs
        transactions = self._transactions
        transaction = transactions[middle]
        precedes = transaction.precedes
        locked = set(transaction.locked_entities())

        def rows(other: str, step_of):
            """One row per entity *other* shares with the middle
            transaction: its B-node and the middle transaction's step
            that the arc rules compare."""
            pair = frozenset({other, middle})
            shared = locked.intersection(transactions[other].locked_entities())
            return [((entity, pair), step_of(entity)) for entity in sorted(shared)]

        locks = rows(left, transaction.lock_step)
        unlocks = rows(right, transaction.unlock_step)
        found = [
            (x_node, y_node)
            for x_node, lock_x in locks
            for y_node, unlock_y in unlocks
            if precedes(lock_x, unlock_y)
        ]
        for side in (locks, unlocks):
            found += [
                (node, node2)
                for node, step in side
                for node2, step2 in side
                if precedes(step, step2)
            ]
        arcs = self._triples[key] = tuple(found)
        return arcs

    def cycle_is_cyclic(self, cycle: Sequence[str]) -> bool:
        """Does ``B_c`` have a cycle?  *cycle* is a directed cycle of the
        interaction graph, given without the repeated final node.

        Kahn's algorithm straight over the cached arcs: isolated nodes
        of ``B_c`` cannot lie on a cycle, so only arc endpoints are
        materialised, and an arc contributed by two triples counts
        twice on both sides of the in-degree bookkeeping."""
        length = len(cycle)
        successors: dict[BNode, list[BNode]] = {}
        indegree: dict[BNode, int] = {}
        for index in range(length):
            for tail, head in self.triple_arcs(
                cycle[index],
                cycle[(index + 1) % length],
                cycle[(index + 2) % length],
            ):
                if tail in successors:
                    successors[tail].append(head)
                else:
                    successors[tail] = [head]
                    indegree.setdefault(tail, 0)
                indegree[head] = indegree.get(head, 0) + 1
        ready = [node for node, degree in indegree.items() if degree == 0]
        removed = 0
        while ready:
            removed += 1
            for head in successors.get(ready.pop(), ()):
                indegree[head] -= 1
                if indegree[head] == 0:
                    ready.append(head)
        return removed < len(indegree)


def directed_cycles_of_interaction_graph(
    system: TransactionSystem, *, limit: int | None = None
):
    """Directed cycles of ``G`` with length >= 3 (both directions of each
    undirected cycle appear)."""
    graph = interaction_graph(system)
    for cycle in simple_cycles(graph, limit=limit):
        if len(cycle) >= 3:
            yield cycle


def decide_safety_multi(system: TransactionSystem):
    """Proposition 2's decision procedure for ``k >= 3`` transactions.

    Condition (a) uses the strongest pair decider (Theorem 2 at two
    sites, exact bit-vector search otherwise); condition (b) checks that
    ``B_c`` has a cycle for every directed cycle of ``G`` — all of them:
    a safe verdict needs the whole enumeration.  A caller that must
    bound that work vets through
    :class:`~repro.service.AdmissionRegistry`, whose ``cycle_limit``
    raises :class:`~repro.errors.VettingBudgetError` instead of
    answering.
    """
    from .safety import SafetyVerdict, decide_safety

    transactions = system.transactions
    # (a) every two-transaction subsystem safe.
    with trace.span("multi.pairs") as sp:
        if sp:
            sp.set(transactions=len(transactions))
        for i, first in enumerate(transactions):
            for second in transactions[i + 1 :]:
                sub = TransactionSystem([first, second])
                verdict = decide_safety(sub, want_certificate=False)
                if not verdict.safe:
                    return SafetyVerdict(
                        safe=False,
                        method="proposition-2",
                        detail=(
                            f"two-transaction subsystem "
                            f"{{{first.name}, {second.name}}} is unsafe: "
                            f"{verdict.detail}"
                        ),
                        witness=verdict.witness,
                        certificate=verdict.certificate,
                    )
    # (b) every directed cycle's B_c has a cycle.
    checked = 0
    kernel = BGraphKernel(system)
    with trace.span("multi.cycles") as sp:
        for cycle in directed_cycles_of_interaction_graph(system):
            checked += 1
            if not kernel.cycle_is_cyclic(cycle):
                if sp:
                    sp.set(cycles_checked=checked)
                return SafetyVerdict(
                    safe=False,
                    method="proposition-2",
                    detail=(
                        f"B_c is acyclic for the interaction-graph cycle "
                        f"{' -> '.join(cycle)}"
                    ),
                )
        if sp:
            sp.set(cycles_checked=checked)
    return SafetyVerdict(
        safe=True,
        method="proposition-2",
        detail=(
            f"all pairs safe and B_c cyclic for each of {checked} "
            "interaction-graph cycles"
        ),
    )
