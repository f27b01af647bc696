"""Topological sorting, including the priority-driven variants used by the
unsafeness-certificate construction of Theorem 2.

The proof of Theorem 2 builds two special linear extensions:

* ``t1``: a topological sort of ``T1'`` that places the ``Ux`` steps of the
  dominator ``X`` *as early as possible*;
* ``t2``: a topological sort of ``T2'`` that places the ``Lx`` steps of
  ``X`` *as late as possible*, breaking ties among ``Lx`` steps by the
  order their ``Ux`` twins received in ``t1``.

Both are instances of greedy Kahn sorts with a priority key, provided
here as :func:`topological_sort` with a ``key`` callable.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Hashable, Iterator, Sequence

from .digraph import DiGraph


class CycleError(ValueError):
    """Raised when a graph that must be acyclic contains a cycle."""

    def __init__(self, message: str, cycle: list[Hashable] | None = None):
        super().__init__(message)
        self.cycle = cycle or []


def is_acyclic(graph: DiGraph) -> bool:
    """True iff *graph* has no directed cycle (self-loops count)."""
    indegree = {node: graph.in_degree(node) for node in graph.nodes()}
    ready = [node for node, deg in indegree.items() if deg == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in graph.successors(node):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return seen == graph.node_count()


def find_cycle(graph: DiGraph) -> list[Hashable] | None:
    """Return one directed cycle as a node list (first == last), or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph.nodes()}
    parent: dict[Hashable, Hashable] = {}
    for root in graph.nodes():
        if color[root] != WHITE:
            continue
        stack: list[tuple[Hashable, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, pos = stack.pop()
            successors = graph.successors(node)
            advanced = False
            for idx in range(pos, len(successors)):
                nxt = successors[idx]
                if color[nxt] == GRAY:
                    # Found a back arc node -> nxt: reconstruct the cycle.
                    cycle = [node]
                    cursor = node
                    while cursor != nxt:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((node, idx + 1))
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
    return None


def topological_order(
    count: int,
    arcs: Sequence[tuple[int, int]],
    priority: Sequence | None = None,
) -> list[int]:
    """Kahn topological sort of the nodes ``0 .. count - 1``.

    Among the available (indegree-zero) nodes the one with the smallest
    ``(priority[node], node)`` is emitted first — without *priority*,
    the smallest id.  That one tie-break rule is
    :func:`topological_sort`'s too: it numbers nodes by insertion
    position and delegates here.  A parallel arc changes nothing (its
    head waits for the same tail), so the order is the one
    :class:`DiGraph`, which keeps one arc per pair, would give.

    Raises :class:`CycleError` if the arcs close a directed cycle; its
    ``cycle`` is :func:`find_cycle`'s on ``DiGraph(range(count), arcs)``.
    """
    successors: list[list[int]] = [[] for _ in range(count)]
    indegree = [0] * count
    for tail, head in arcs:
        successors[tail].append(head)
        indegree[head] += 1
    result: list[int] = []
    if priority is None:
        heap = [node for node in range(count) if not indegree[node]]
        while heap:
            node = heapq.heappop(heap)
            result.append(node)
            for nxt in successors[node]:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    heapq.heappush(heap, nxt)
    else:
        ranked = [
            (priority[node], node) for node in range(count) if not indegree[node]
        ]
        heapq.heapify(ranked)
        while ranked:
            node = heapq.heappop(ranked)[1]
            result.append(node)
            for nxt in successors[node]:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    heapq.heappush(ranked, (priority[nxt], nxt))
    if len(result) != count:
        raise CycleError(
            "graph contains a directed cycle; no topological order exists",
            find_cycle(DiGraph(range(count), arcs)),
        )
    return result


def topological_sort(
    graph: DiGraph,
    key: Callable[[Hashable], object] | None = None,
) -> list[Hashable]:
    """Kahn topological sort.

    When *key* is given, among the currently available (indegree-zero)
    nodes the one with the **smallest** key is emitted first; this is how
    "place these steps as early as possible" priorities are expressed.
    Ties, and every choice without *key*, go to insertion order, keeping
    results deterministic (:func:`topological_order`).

    Raises :class:`CycleError` if the graph has a directed cycle.
    """
    nodes = graph.nodes()
    position = {node: index for index, node in enumerate(nodes)}
    arcs = [(position[tail], position[head]) for tail, head in graph.arcs()]
    priority = None if key is None else [key(node) for node in nodes]
    try:
        order = topological_order(len(nodes), arcs, priority)
    except CycleError as exc:
        raise CycleError(
            str(exc), [nodes[index] for index in exc.cycle]
        ) from None
    return [nodes[index] for index in order]


def all_topological_sorts(
    graph: DiGraph, limit: int | None = None
) -> Iterator[list[Hashable]]:
    """Yield every topological sort of *graph* (backtracking Kahn).

    Used by the exhaustive safety decider to enumerate the linear
    extensions of small transactions; *limit* caps the enumeration for
    defensive use on unexpectedly large inputs.
    """
    indegree = {node: graph.in_degree(node) for node in graph.nodes()}
    total = graph.node_count()
    prefix: list[Hashable] = []
    produced = 0

    def backtrack() -> Iterator[list[Hashable]]:
        nonlocal produced
        if len(prefix) == total:
            produced += 1
            yield list(prefix)
            return
        for node, degree in list(indegree.items()):
            if degree != 0:
                continue
            indegree[node] = -1  # mark as used
            for nxt in graph.successors(node):
                indegree[nxt] -= 1
            prefix.append(node)
            yield from backtrack()
            prefix.pop()
            for nxt in graph.successors(node):
                indegree[nxt] += 1
            indegree[node] = 0
            if limit is not None and produced >= limit:
                return

    yield from backtrack()
