"""Simple-cycle enumeration (Johnson's algorithm).

Proposition 2 (Section 6 of the paper) quantifies over the directed cycles
of the conflict graph ``G`` of a many-transaction system: the system is
safe iff every two-transaction subsystem is safe *and* for each directed
cycle ``c`` of ``G`` the union graph ``B_c`` contains a cycle.  This module
provides the cycle enumeration that decider needs.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterator

from .digraph import DiGraph
from .scc import strongly_connected_components


def simple_cycles(
    graph: DiGraph, limit: int | None = None
) -> Iterator[list[Hashable]]:
    """Yield every elementary directed cycle of *graph* as a node list
    (without repeating the starting node at the end).

    Implementation: Johnson (1975), restricted to one strongly connected
    component at a time.  Self-loops are yielded as single-node cycles.
    *limit* optionally caps the enumeration: the first *limit* cycles of
    the uncapped order, nothing past them computed (none when
    ``limit <= 0``).
    """
    cycles = _johnson(graph)
    return cycles if limit is None else itertools.islice(cycles, max(limit, 0))


def _johnson(graph: DiGraph) -> Iterator[list[Hashable]]:
    """Every elementary cycle, lazily, in :func:`simple_cycles` order."""
    # Self-loops first; Johnson's recursion below ignores them.
    for node in graph.nodes():
        if graph.has_arc(node, node):
            yield [node]

    work = graph.without_self_loops()
    order = {node: position for position, node in enumerate(graph.nodes())}

    while True:
        # Find the SCC (with >= 2 nodes) containing the least-order node.
        candidates = [
            component
            for component in strongly_connected_components(work)
            if len(component) >= 2
        ]
        if not candidates:
            return
        component = min(
            candidates, key=lambda members: min(order[m] for m in members)
        )
        sub = work.subgraph(component)
        start = min(component, key=lambda member: order[member])

        blocked: set[Hashable] = set()
        blocked_map: dict[Hashable, set[Hashable]] = {
            node: set() for node in sub.nodes()
        }
        path: list[Hashable] = []

        def unblock(node: Hashable) -> None:
            stack = [node]
            while stack:
                current = stack.pop()
                if current in blocked:
                    blocked.discard(current)
                    stack.extend(blocked_map[current])
                    blocked_map[current].clear()

        def circuit(node: Hashable) -> Iterator[list[Hashable]]:
            found = False
            path.append(node)
            blocked.add(node)
            for nxt in sub.successors(node):
                if nxt == start:
                    yield list(path)
                    found = True
                elif nxt not in blocked:
                    for cycle in circuit(nxt):
                        yield cycle
                        found = True
            if found:
                unblock(node)
            else:
                for nxt in sub.successors(node):
                    blocked_map[nxt].add(node)
            path.pop()

        yield from circuit(start)
        # Remove the start node and continue with the remainder.
        remaining = [node for node in work.nodes() if node != start]
        work = work.subgraph(remaining)


def has_cycle(graph: DiGraph) -> bool:
    """True iff *graph* contains any directed cycle (incl. self-loops)."""
    if any(graph.has_arc(node, node) for node in graph.nodes()):
        return True
    return any(
        len(component) >= 2
        for component in strongly_connected_components(graph)
    )
