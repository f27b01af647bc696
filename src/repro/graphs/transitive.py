"""Transitive closure and reduction.

The transaction model needs fast ``precedes(a, b)`` queries over partial
orders with up to a few thousand steps (the ``O(n^2)`` scaling benchmark of
Corollary 1).  The closure is therefore computed as per-node reachability
bitsets packed into Python ints, which makes closure of an ``n``-step DAG
``O(n * m / 64)`` word operations and each query ``O(1)``.
"""

from __future__ import annotations

from collections.abc import Hashable

from ..obs.trace import current_span
from .digraph import DiGraph
from .topo import CycleError, topological_sort


class TransitiveClosure:
    """Reachability oracle for a DAG.

    ``closure.reaches(a, b)`` answers whether there is a *non-empty*
    directed path from ``a`` to ``b`` — i.e. strict precedence in the
    partial-order reading used throughout the paper.
    """

    def __init__(self, graph: DiGraph) -> None:
        try:
            order = topological_sort(graph)
        except CycleError as exc:
            raise CycleError(
                "transitive closure requires an acyclic graph", exc.cycle
            ) from exc
        self._index: dict[Hashable, int] = {
            node: position for position, node in enumerate(order)
        }
        self._nodes = order
        # _mask[i] has bit j set iff node i strictly reaches node j.
        masks = [0] * len(order)
        for node in reversed(order):
            i = self._index[node]
            mask = 0
            for nxt in graph.successors(node):
                j = self._index[nxt]
                mask |= 1 << j
                mask |= masks[j]
            masks[i] = mask
        self._masks = masks
        sp = current_span()
        if sp:
            sp.set(closure_nodes=len(order))

    def reaches(self, a: Hashable, b: Hashable) -> bool:
        """True iff there is a non-empty path from *a* to *b*."""
        return bool(self._masks[self._index[a]] >> self._index[b] & 1)

    def row(self, a: Hashable) -> int:
        """The packed reachability row of *a*: bit ``position(b)`` is set
        iff *a* strictly reaches *b*.  Lets callers that ask the same
        rows many questions (``D(T1, T2)``) work on ints, not nodes."""
        return self._masks[self._index[a]]

    def position(self, a: Hashable) -> int:
        """The bit position of *a* in every :meth:`row`."""
        return self._index[a]

    def descendants(self, a: Hashable) -> set[Hashable]:
        """All nodes strictly reachable from *a*."""
        mask = self._masks[self._index[a]]
        return {
            node
            for node, position in self._index.items()
            if mask >> position & 1
        }

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        """True iff *a* and *b* are ordered either way (strictly)."""
        return self.reaches(a, b) or self.reaches(b, a)


def transitive_closure(graph: DiGraph) -> DiGraph:
    """Materialize the strict transitive closure of a DAG as arcs."""
    oracle = TransitiveClosure(graph)
    closed = DiGraph(graph.nodes())
    for node in graph.nodes():
        for descendant in oracle.descendants(node):
            closed.add_arc(node, descendant)
    return closed


def transitive_reduction(graph: DiGraph) -> DiGraph:
    """Minimal DAG with the same reachability relation (Hasse diagram).

    Used to draw the paper's figures: the dags in Figs. 1, 3, 5 and 9 are
    Hasse diagrams of the transaction partial orders.
    """
    oracle = TransitiveClosure(graph)
    reduced = DiGraph(graph.nodes())
    for node in graph.nodes():
        successors = graph.successors(node)
        for head in successors:
            # Keep node -> head unless some other successor reaches head.
            redundant = any(
                other != head and oracle.reaches(other, head)
                for other in successors
            )
            if not redundant:
                reduced.add_arc(node, head)
    return reduced
