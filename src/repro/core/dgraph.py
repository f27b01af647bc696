"""The conflict digraph ``D(T1, T2)`` of Definition 1, and its dominators.

    "For a transaction pair {T1, T2} let D(T1, T2) be the directed graph
    (V, A), where
      (1) V is the set of all entities locked-unlocked by both T1 and T2,
      (2) (x, y) ∈ A iff Lx precedes Uy in T1, and Ly precedes Ux in T2."

Geometrically (Fig. 4): ``(x, y)`` is an arc iff in *every* compatible
pair of total orders the upper-left corner of the ``x``-rectangle lies
above-left of the lower-right corner of the ``y``-rectangle — which
forces any legal curve's bits to satisfy ``b_x <= b_y``.

Strong connectivity of ``D`` is sufficient for safety at any number of
sites (Theorem 1), and exactly characterizes safety for one- and
two-site systems (Theorem 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from ..graphs import (
    DiGraph,
    dominators as _graph_dominators,
    is_dominator as _is_dominator,
    some_dominator as _some_dominator,
)
from .fastcheck import _lock_tables
from .step import Step
from .transaction import Transaction


def shared_locked_entities(first: Transaction, second: Transaction) -> list[str]:
    """``V``: entities locked-unlocked by both transactions, in the first
    transaction's insertion order."""
    second_locked = set(second.locked_entities())
    return [
        entity
        for entity in first.locked_entities()
        if entity in second_locked
    ]


class PairLockOrder:
    """How a pair orders locks before unlocks on its shared entities,
    read off the two transitive closures once and kept as bitsets.

    ``entities`` is ``V`` of Definition 1; for ``x = entities[i]``,
    ``before1[i]`` is ``{y ≠ x : Lx precedes Uy in T1}`` and
    ``before2[i]`` the same in ``T2``, as bitsets over positions in
    ``entities``.  ``successors[i]`` is ``x``'s row of ``D(T1, T2)``.
    Strong connectivity of ``D``, its dominators and the realizability
    of a schedule bit vector (DESIGN.md §2.3) are all functions of these
    ints; a dominator is a bitset too (:meth:`mask`).
    """

    def __init__(self, first: Transaction, second: Transaction) -> None:
        self.entities = shared_locked_entities(first, second)
        self.before1 = first.locks_before_unlocks(self.entities)
        self.before2 = second.locks_before_unlocks(self.entities)
        self._bit = {
            entity: 1 << position
            for position, entity in enumerate(self.entities)
        }
        # (x, y) ∈ A iff y ∈ before1[x] and x ∈ before2[y].
        self.successors = [
            row & column
            for row, column in zip(self.before1, _transpose(self.before2))
        ]

    def mask(self, members: Iterable[str]) -> int:
        """The bitset of an entity set."""
        bits = 0
        for entity in members:
            bits |= self._bit[entity]
        return bits

    def d_graph(self) -> DiGraph:
        """``D(T1, T2)`` as a :class:`DiGraph`: nodes in ``V`` order,
        arcs tail-major with heads ascending in ``V`` order."""
        entities = self.entities
        graph = DiGraph(entities)
        for x, row in enumerate(self.successors):
            for y in _positions(row):
                graph.add_arc(entities[x], entities[y])
        return graph

    def strongly_connected(self) -> bool:
        """Is ``D`` strongly connected?  Everything is reached from and
        reaches the first entity; fewer than two entities count as
        connected (no two rectangles to separate)."""
        everything = (1 << len(self.entities)) - 1
        if everything <= 1:
            return True
        return (
            _reach(self.successors) == everything
            and _reach(_transpose(self.successors)) == everything
        )

    def components(self) -> list[int]:
        """The strongly connected components of ``D`` as bitsets, in the
        order Tarjan's algorithm emits them with roots in ``V`` order and
        successors ascending: ``strongly_connected_components``' order on
        :meth:`d_graph`, so every arc between components runs from a
        later one to an earlier one."""
        successors = self.successors
        index = [-1] * len(successors)
        low = [0] * len(successors)
        stack: list[int] = []
        on_stack = 0
        components: list[int] = []
        counter = 0
        for root in range(len(successors)):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack |= 1 << root
            work = [[root, successors[root]]]  # node, successors not yet tried
            while work:
                frame = work[-1]
                node, pending = frame
                if pending:
                    bit = pending & -pending
                    frame[1] = pending ^ bit
                    nxt = bit.bit_length() - 1
                    if index[nxt] < 0:
                        index[nxt] = low[nxt] = counter
                        counter += 1
                        stack.append(nxt)
                        on_stack |= bit
                        work.append([nxt, successors[nxt]])
                    elif on_stack & bit and index[nxt] < low[node]:
                        low[node] = index[nxt]
                    continue
                work.pop()
                if low[node] == index[node]:
                    members = 0
                    member = -1
                    while member != node:
                        member = stack.pop()
                        members |= 1 << member
                    on_stack &= ~members
                    components.append(members)
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
        return components

    def dominators(self, limit: int | None = None) -> Iterator[int]:
        """Every dominator of ``D`` (Definition 2) as a bitset, at most
        *limit* of them, in :func:`dominators_of`' order on
        :meth:`d_graph`: components in topological order, each taken
        "in" (allowed once all its predecessors are in) before "out";
        the empty and the full set skipped."""
        components = self.components()[::-1]
        predecessors = _transpose(self.successors)
        entering = []  # component -> the entities with an arc into it
        for members in components:
            sources = 0
            for x in _positions(members):
                sources |= predecessors[x]
            entering.append(sources & ~members)
        everything = (1 << len(self.entities)) - 1
        count = len(components)
        produced = 0
        stack = [(0, 0)]  # (components decided, zero-set so far)
        while stack:
            position, chosen = stack.pop()
            if position == count:
                if chosen and chosen != everything:
                    if limit is not None and produced >= limit:
                        return
                    produced += 1
                    yield chosen
                continue
            stack.append((position + 1, chosen))
            if not entering[position] & ~chosen:
                stack.append((position + 1, chosen | components[position]))

    def realizable(self, zeros: int) -> bool:
        """Is the bit vector with ``b_x = 0`` exactly on *zeros* (a
        bitset, see :meth:`mask`) realizable, i.e. is
        ``T1 ∪ T2 ∪ arcs(b)`` acyclic?

        ``T1`` and ``T2`` are disjoint and acyclic, so a cycle must
        alternate ``U1x → L2x ⇝ U2y → L1y ⇝ U1x' …`` with ``b_x = 0``,
        ``b_y = 1``: it exists iff the digraph on ``V`` with ``x → y``
        for ``y ∈ before2[x]`` (``b_x = 0, b_y = 1``) and ``y → x`` for
        ``x ∈ before1[y]`` has one.  Decided by peeling sinks (nodes with
        no live successor): ``O(k)`` bitset operations per round.
        """
        alive = (1 << len(self.entities)) - 1
        ones = alive & ~zeros
        pending = [
            (1 << x, row2 & ones if zeros >> x & 1 else row1 & zeros)
            for x, (row1, row2) in enumerate(zip(self.before1, self.before2))
        ]
        while pending:
            blocked = [node for node in pending if node[1] & alive]
            if len(blocked) == len(pending):
                return False
            alive = 0
            for bit, _ in blocked:
                alive |= bit
            pending = blocked
        return True


def _positions(bits: int) -> Iterator[int]:
    """The set bit positions of *bits*, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _transpose(rows: list[int]) -> list[int]:
    """The bit matrix *rows* transposed: ``y ∈ result[x]`` iff
    ``x ∈ rows[y]``."""
    columns = [0] * len(rows)
    for y, row in enumerate(rows):
        for x in _positions(row):
            columns[x] |= 1 << y
    return columns


def _reach(rows: list[int]) -> int:
    """Every position reachable from position 0 along *rows*."""
    seen = frontier = 1
    while frontier:
        step = 0
        for x in _positions(frontier):
            step |= rows[x]
        frontier = step & ~seen
        seen |= frontier
    return seen


def d_graph(first: Transaction, second: Transaction) -> DiGraph:
    """Build ``D(T1, T2)`` per Definition 1 (no self-loops).

    Cost: ``O(k^2)`` bit tests over ``k`` shared entities on the closure
    rows the transactions already hold — within the ``O(n^2)`` bound of
    Corollary 1.
    """
    return PairLockOrder(first, second).d_graph()


def d_graph_of_total_orders(
    t1: Sequence[Step], t2: Sequence[Step]
) -> DiGraph:
    """``D(t1, t2)`` for two total orders given as step sequences."""
    pairs1 = _lock_tables(t1)
    pairs2 = _lock_tables(t2)
    shared = [
        entity
        for entity in dict.fromkeys(step.entity for step in t1)
        if entity in pairs1 and entity in pairs2
    ]
    graph = DiGraph(shared)
    for x in shared:
        lock1_x, unlock2_x = pairs1[x][0], pairs2[x][1]
        for y in shared:
            if x != y and lock1_x < pairs1[y][1] and pairs2[y][0] < unlock2_x:
                graph.add_arc(x, y)
    return graph


def is_d_strongly_connected(first: Transaction, second: Transaction) -> bool:
    """Theorem 1's hypothesis. A ``D`` with fewer than two vertices is
    trivially strongly connected (no two rectangles to separate)."""
    return PairLockOrder(first, second).strongly_connected()


def dominators_of(graph: DiGraph, limit: int | None = None) -> Iterator[frozenset]:
    """All dominators of ``D`` (Definition 2): nonempty proper subsets of
    the vertices with no incoming arcs from the complement.  The exact
    decider enumerates the same sets, in the same order, as bitsets
    (:meth:`PairLockOrder.dominators`)."""
    return _graph_dominators(graph, limit=limit)


def some_dominator_of(graph: DiGraph) -> frozenset | None:
    """A canonical dominator (a source SCC), or ``None`` when strongly
    connected — the paper: "a directed graph has a dominator iff it is
    not strongly connected"."""
    return _some_dominator(graph)


def is_dominator_of(graph: DiGraph, candidate: set | frozenset) -> bool:
    """Definition 2, checked directly."""
    return _is_dominator(graph, candidate)
