"""Tree (hierarchical) locking policies.

The paper's §6 recalls that correct locking policies are exactly the
*hypergraph* policies — generalizing "the hierarchical schemes of [12]"
(Silberschatz-Kedem).  This module implements the classical tree
protocol over a rooted entity hierarchy, as the concrete representative
of that non-two-phase family:

* a transaction's first lock may target any tree node;
* every later lock on ``x`` requires currently *holding* the lock on
  ``parent(x)``;
* each entity is locked at most once (the paper's model enforces this
  anyway).

Tree-protocol transactions are generally **not** two-phase, yet every
system they form is safe — giving the test suite a second, independent
family of safe-by-construction workloads.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from ..core.entity import DistributedDatabase
from ..core.step import Step
from ..core.transaction import Transaction, TransactionBuilder
from ..errors import ModelError


class EntityTree:
    """A rooted tree over entity names."""

    def __init__(self, parent_of: Mapping[str, str | None]) -> None:
        roots = [child for child, parent in parent_of.items() if parent is None]
        if len(roots) != 1:
            raise ModelError(
                f"an entity tree needs exactly one root, found {roots}"
            )
        self.parent_of = dict(parent_of)
        self.root = roots[0]
        # Validate: every parent is a node, no cycles.
        for child in parent_of:
            seen = {child}
            cursor = parent_of[child]
            while cursor is not None:
                if cursor not in parent_of:
                    raise ModelError(f"parent {cursor!r} is not a tree node")
                if cursor in seen:
                    raise ModelError(f"cycle in entity tree at {cursor!r}")
                seen.add(cursor)
                cursor = parent_of[cursor]

    def children_of(self, node: str) -> list[str]:
        return [
            child
            for child, parent in self.parent_of.items()
            if parent == node
        ]

    def nodes(self) -> list[str]:
        return list(self.parent_of)


def follows_tree_protocol(
    transaction: Transaction, tree: EntityTree, order: Sequence[Step] | None = None
) -> bool:
    """Check the protocol along a linear extension (default: canonical).

    The protocol is a *dynamic* rule; for a partially ordered
    transaction we require it along the given witness order.
    """
    if order is None:
        order = transaction.a_linear_extension()
    held: set[str] = set()
    first = True
    for step in order:
        if step.is_lock:
            entity = step.entity
            if not first:
                parent = tree.parent_of.get(entity)
                if parent is None or parent not in held:
                    return False
            held.add(entity)
            first = False
        elif step.is_unlock:
            held.discard(step.entity)
    return True


def random_tree_transaction(
    name: str,
    database: DistributedDatabase,
    tree: EntityTree,
    rng: random.Random,
    *,
    walk_length: int = 4,
) -> Transaction:
    """Generate a totally ordered transaction obeying the tree protocol:
    a random root-to-descendant walk, crab-style (:func:`crab_walk`).

    Total order (explicit precedences between consecutive steps across
    sites) keeps the dynamic protocol meaningful for the unique
    extension.  Crab-walk pairs always produce a strongly connected
    ``D`` on their shared path prefix, so tree-protocol systems are safe
    by Theorem 1 — the non-two-phase safe family of the test suite.
    """
    path = [tree.root]
    cursor = tree.root
    for _ in range(walk_length - 1):
        children = [
            child for child in tree.children_of(cursor) if child in database
        ]
        if not children:
            break
        cursor = rng.choice(children)
        path.append(cursor)
    return crab_walk(name, database, path)


def crab_walk(
    name: str, database: DistributedDatabase, path: Sequence[str]
) -> Transaction:
    """The totally ordered transaction that walks *path* (each node a
    child of the one before) crab-style — lock the child while still
    holding the parent, then release the parent:

        ``L p0, p0, L p1, U p0, p1, L p2, U p1, p2, ..., U pk``
    """
    builder = TransactionBuilder(name, database)
    previous: Step | None = None

    def emit(step: Step) -> None:
        nonlocal previous
        if previous is not None:
            builder.precede(previous, step)
        previous = step

    emit(builder.lock(path[0]))
    emit(builder.update(path[0]))
    for index in range(1, len(path)):
        emit(builder.lock(path[index]))
        emit(builder.unlock(path[index - 1]))
        emit(builder.update(path[index]))
    emit(builder.unlock(path[-1]))
    return builder.build()
