"""Deadlock *resolution* policies: which cycle member dies.

The detector (:mod:`repro.sim.deadlock`) finds a wait-for cycle; a
resolution policy picks the victim the engine rolls back and requeues.
Ages are admission-order indices fixed at engine construction and kept
across restarts (the classical guard against livelock: a transaction
cannot stay "youngest forever" by virtue of being repeatedly killed —
its relative age is stable, and bounded retries end the fight either
way).

* ``abort-youngest`` — kill the youngest cycle member, the classical
  minimum-lost-work heuristic;
* ``abort-random`` — kill a seeded-uniform member, the baseline that
  shows how much the heuristics actually buy;
* ``wound-wait`` — the oldest waiter in the cycle *wounds* the member
  it waits for, Rosenkrantz-style, applied here at detection time
  rather than at every conflict.

After the victim rolls back, :func:`backoff_ticks` says how long it
waits before its next attempt; the simulator and the cluster
coordinator share it.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from ..errors import FaultPlanError

#: The deadlock-resolution policies the engine understands.
POLICIES = ("abort-youngest", "abort-random", "wound-wait")


def validate_policy(policy: str | None) -> str | None:
    """Normalize *policy*: ``None``/``"none"`` disable resolution, any
    other value must be one of :data:`POLICIES`."""
    if policy is None or policy == "none":
        return None
    if policy not in POLICIES:
        raise FaultPlanError(f"unknown deadlock policy {policy!r} (choose from {POLICIES})")
    return policy


def choose_victim(
    policy: str,
    cycle: Sequence[str],
    ages: Mapping[str, int],
    rng: random.Random,
) -> str:
    """The cycle member *policy* sacrifices.

    *cycle* lists the members in wait-for order (``cycle[i]`` waits for
    ``cycle[i+1]``, wrapping); *ages* maps names to admission-order
    indices (smaller = older); *rng* is the engine's seeded fault RNG,
    consumed only by ``abort-random``.
    """
    if not cycle:
        raise FaultPlanError("cannot pick a victim from an empty cycle")
    if policy == "abort-youngest":
        return max(cycle, key=lambda name: (ages.get(name, -1), name))
    if policy == "abort-random":
        return rng.choice(sorted(cycle))
    if policy == "wound-wait":
        oldest = min(cycle, key=lambda name: (ages.get(name, -1), name))
        return cycle[(cycle.index(oldest) + 1) % len(cycle)]
    raise FaultPlanError(f"unknown deadlock policy {policy!r} (choose from {POLICIES})")


def backoff_ticks(attempt: int, rng: random.Random) -> int:
    """Logical ticks a victim waits after its *attempt*-th abort
    (0-based): ``2**attempt`` plus a jitter of 0, 1 or 2 drawn from
    *rng*, exactly one draw per abort."""
    return 2**attempt + rng.randrange(3)
