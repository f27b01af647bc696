"""Shared cluster-test workloads."""

import pytest

from repro.core.entity import DistributedDatabase
from repro.core.schedule import TransactionSystem
from repro.core.step import lock, unlock, update
from repro.core.transaction import Transaction


def chain_tx(name, database, entities):
    """A totally ordered transaction locking *entities* in order
    (lock, update, lock, update, ..., then unlock in lock order)."""
    steps = []
    for entity in entities:
        steps.append(lock(entity))
        steps.append(update(entity))
    for entity in entities:
        steps.append(unlock(entity))
    order = [(steps[i], steps[i + 1]) for i in range(len(steps) - 1)]
    return Transaction(name, database, steps, order)


def deadlock_prone_pair(database=None):
    """Two 2PL transactions locking x and y in opposite orders — safe
    (both two-phase) but guaranteed deadlock-capable."""
    if database is None:
        database = DistributedDatabase({"x": 1, "y": 2})
    return TransactionSystem(
        [
            chain_tx("T1", database, ["x", "y"]),
            chain_tx("T2", database, ["y", "x"]),
        ]
    )


@pytest.fixture
def two_site_db():
    return DistributedDatabase({"x": 1, "y": 2})


@pytest.fixture
def deadlock_prone_system(two_site_db):
    return deadlock_prone_pair(two_site_db)
