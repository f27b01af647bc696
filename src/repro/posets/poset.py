"""Finite partial orders.

A distributed transaction *is* a partial order of steps (paper §2), and
Lemma 1 reduces safety of a pair of partial orders to safety of all pairs
of their linear extensions.  :class:`Poset` packages the order-theoretic
queries the core needs: strict precedence, comparability, covers,
compatibility of a total order, and restriction to a subset of items.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from ..graphs import (
    CycleError,
    DiGraph,
    TransitiveClosure,
    topological_sort,
    transitive_reduction,
)


class NotAPartialOrderError(ValueError):
    """Raised when the precedence relation supplied contains a cycle."""


class Poset:
    """An immutable finite poset built from items and precedence pairs."""

    def __init__(
        self,
        items: Iterable[Hashable],
        precedences: Iterable[tuple[Hashable, Hashable]] = (),
    ) -> None:
        self._graph = DiGraph(items)
        for before, after in precedences:
            if not self._graph.has_node(before) or not self._graph.has_node(after):
                raise KeyError(
                    f"precedence ({before!r}, {after!r}) mentions an unknown item"
                )
            self._graph.add_arc(before, after)
        try:
            self._closure = TransitiveClosure(self._graph)
        except CycleError as exc:
            raise NotAPartialOrderError(
                f"precedence relation contains a cycle: {exc.cycle}"
            ) from exc

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def items(self) -> list[Hashable]:
        """All items, in insertion order."""
        return self._graph.nodes()

    def __len__(self) -> int:
        return self._graph.node_count()

    def __contains__(self, item: Hashable) -> bool:
        return self._graph.has_node(item)

    def precedes(self, a: Hashable, b: Hashable) -> bool:
        """Strictly precedes: ``a < b`` in the order (irreflexive)."""
        if a == b:
            return False
        return self._closure.reaches(a, b)

    def closure(self) -> TransitiveClosure:
        """The strict-order reachability oracle (packed bitset rows)."""
        return self._closure

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a < b`` or ``b < a``."""
        return self.precedes(a, b) or self.precedes(b, a)

    def concurrent(self, a: Hashable, b: Hashable) -> bool:
        """True iff distinct and incomparable (the paper's 'concurrent')."""
        return a != b and not self.comparable(a, b)

    def arcs(self) -> list[tuple[Hashable, Hashable]]:
        """The precedence arcs as given (not the full closure)."""
        return self._graph.arcs()

    def graph(self) -> DiGraph:
        """A copy of the underlying precedence DAG."""
        return self._graph.copy()

    def cover_graph(self) -> DiGraph:
        """The Hasse diagram (transitive reduction) of the order."""
        return transitive_reduction(self._graph)

    def down_set(self, item: Hashable) -> set[Hashable]:
        """All strict predecessors of *item*."""
        return {
            other for other in self.items() if self.precedes(other, item)
        }

    def up_set(self, item: Hashable) -> set[Hashable]:
        """All strict successors of *item*."""
        return self._closure.descendants(item) - {item}

    def minimal_items(self) -> list[Hashable]:
        """Items with no strict predecessor."""
        graph = self._graph
        return [item for item in graph.nodes() if graph.in_degree(item) == 0]

    def maximal_items(self) -> list[Hashable]:
        """Items with no strict successor."""
        graph = self._graph
        return [item for item in graph.nodes() if graph.out_degree(item) == 0]

    # ------------------------------------------------------------------
    # Derived orders
    # ------------------------------------------------------------------
    def with_precedences(
        self, extra: Iterable[tuple[Hashable, Hashable]]
    ) -> "Poset":
        """A new poset with additional precedences (used by the closure
        construction of Theorem 2, which repeatedly strengthens ``T1`` and
        ``T2``).  Raises :class:`NotAPartialOrderError` if the additions
        create a cycle — which is precisely the Fig. 5 phenomenon."""
        return Poset(self.items(), list(self._graph.arcs()) + list(extra))

    def restrict(self, keep: Iterable[Hashable]) -> "Poset":
        """The induced sub-order on *keep* (inherits all precedences)."""
        kept = set(keep)
        items = [item for item in self.items() if item in kept]
        pairs = [
            (a, b)
            for a in items
            for b in items
            if self.precedes(a, b)
        ]
        return Poset(items, pairs)

    # ------------------------------------------------------------------
    # Linear extensions
    # ------------------------------------------------------------------
    def a_linear_extension(self, key=None) -> list[Hashable]:
        """One linear extension; *key* optionally drives greedy priority
        (smaller key emitted earlier among available items)."""
        return topological_sort(self._graph, key=key)

    def is_linear_extension(self, order: Sequence[Hashable]) -> bool:
        """True iff *order* is a permutation of the items compatible with
        every precedence (a total order t with t ∈ T, paper §2)."""
        if len(order) != len(self) or set(order) != set(self.items()):
            return False
        position = {item: index for index, item in enumerate(order)}
        return all(
            position[a] < position[b]
            for a, b in self._graph.arcs()
        )

    def is_total(self) -> bool:
        """True iff the order is already a chain."""
        items = self.items()
        return all(
            self.comparable(a, b)
            for i, a in enumerate(items)
            for b in items[i + 1 :]
        )
