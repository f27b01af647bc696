"""Properties of the site's step primitives: a step does the same
thing however it is framed, and a follower replaying the log ends
where its leader did.

A *script* is a client-legal sequence of lock / update / unlock /
release / commit operations of 2–3 transactions on one site — legal
meaning a transaction sends no step while one of its locks is queued
(it may still ``release``, the way a coordinator that gave up does).
The same script is shipped

(a) as single frames,
(b) as one-step ``batch`` frames,
(c) with each maximal run of consecutive same-transaction steps as one
    ``batch`` frame, and
(d) like (c), but a run that follows *immediately* the unlock granting
    its transaction's queued lock rides in that lock's frame instead,
    parked behind it — the site then runs it as the continuation of the
    grant, which is exactly where the script has it —

and must leave the same lock table, wait queues, pending waits, update
orders, committed set and dedupe keys on a plain :class:`SiteServer`,
and the same replication log on a one-replica :class:`ReplicaServer`.
On a three-replica group, once the leader's ships drain, every follower
holds the leader's lock table, update orders, committed set and dedupe
keys: replay goes through the primitives the leader applied.

Deadlock probes and grant timers are off, so the only thing that ends a
wait is the script itself; a small model of the lock table (holder +
FIFO queue per entity) decides which draws are legal.
"""

import asyncio
import itertools
from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.cluster import LogicalClock, protocol
from repro.cluster.siteserver import SiteServer
from repro.cluster.transport import MemoryTransport
from repro.replica import ReplicaGroup, ReplicaServer

ENTITIES = ("x", "y", "z")
STEP_KINDS = ("lock", "update", "unlock")
FRAMINGS = ("single", "one-step-batch", "run-batch", "pipelined")
SETTLE = 3


@dataclass
class Op:
    txn: str
    kind: str
    entity: str
    key: int
    #: Model verdicts: this lock queued / these transactions' queued
    #: locks were granted by this unlock or release.
    queued: bool = False
    grants: list = field(default_factory=list)

    def step(self, step_id):
        spec = {"op": self.kind, "id": step_id, "entity": self.entity}
        if self.kind == "update":
            spec["step"] = self.key
        return spec


def legal_script(draws):
    """Keep the draws a client could legally send, annotated with what
    the lock-table model says each does."""
    holder, queues, blocked = {}, {entity: [] for entity in ENTITIES}, set()
    script = []

    def free(entity, op):
        # A free entity never keeps a queue: its head is granted at once.
        del holder[entity]
        if queues[entity]:
            head = queues[entity].pop(0)
            holder[entity] = head
            blocked.discard(head)
            op.grants.append(head)

    for txn, kind, pick, key, follow in draws:
        if follow and script and script[-1].grants:
            # Let the transaction whose wait just ended move next, so
            # framing (d) gets continuations to park.
            txn = script[-1].grants[0]
        if txn in blocked and kind != "release":
            continue
        # Updates and unlocks mostly aim at an entity the transaction
        # holds (else they are all refusals and no-ops), but not always.
        held = [e for e in ENTITIES if holder.get(e) == txn]
        aimed = kind in ("update", "unlock") and held and pick % 4
        entity = held[pick % len(held)] if aimed else ENTITIES[pick % len(ENTITIES)]
        op = Op(txn, kind, entity, key)
        if kind == "lock" and holder.get(entity) != txn:
            if entity not in holder:
                holder[entity] = txn
            else:
                queues[entity].append(txn)
                blocked.add(txn)
                op.queued = True
        elif kind == "unlock" and holder.get(entity) == txn:
            free(entity, op)
        elif kind == "release":
            for queue in queues.values():
                if txn in queue:
                    queue.remove(txn)
            blocked.discard(txn)
            for held in [e for e, owner in holder.items() if owner == txn]:
                free(held, op)
        script.append(op)
    return script


def frames_of(script, framing):
    """The script as ``(txn, kind, payload)`` frames: a single step's
    payload is its :class:`Op`, a batch's the list of its steps."""
    frames = []
    parked = {}  # txn -> the batch whose last step is its queued lock
    run = None
    for index, op in enumerate(script):
        previous = script[index - 1] if index else None
        # A wait that just ended takes its frame off the table; only a
        # run that follows the granting unlock at once may extend it.
        ended = {txn: parked.pop(txn, None) for txn in (previous.grants if previous else ())}
        if op.kind not in STEP_KINDS:
            parked.pop(op.txn, None)
            frames.append((op.txn, op.kind, None))
        elif framing == "single":
            frames.append((op.txn, op.kind, op))
        else:
            same_run = (
                framing != "one-step-batch"
                and previous is not None
                and previous.txn == op.txn
                and previous.kind in STEP_KINDS
            )
            if not same_run:
                after_unlock = previous is not None and previous.kind == "unlock"
                run = ended.get(op.txn) if framing == "pipelined" and after_unlock else None
                if run is None:
                    run = []
                    frames.append((op.txn, "batch", run))
            run.append(op)
            if op.queued:
                parked[op.txn] = run
    return frames


def snapshot(server):
    state = {
        "held": server.locks.held_entities(),
        "queues": {entity: server.locks.waiters(entity) for entity in ENTITIES},
        "pending": sorted(server._pending),
        "updates": {e: list(order) for e, order in server._updates.items()},
        "committed": set(server._committed),
        "applied": {txn: set(keys) for txn, keys in server._applied_ids.items()},
    }
    if isinstance(server, ReplicaServer):
        state["log"] = list(server.log.records)
    return state


async def ship(transport, address, frames):
    """Send *frames* to the server at *address*, one connection per
    transaction, letting the site settle after each."""
    connections = {}
    ids = itertools.count(1)
    for txn, kind, payload in frames:
        if txn not in connections:
            connections[txn] = await transport.connect(address)
        fields = {"txn": txn}
        if kind == "batch":
            fields.update(age=int(txn[1:]), steps=[op.step(next(ids)) for op in payload])
        elif kind in STEP_KINDS:
            fields.update(age=int(txn[1:]), entity=payload.entity)
            if kind == "update":
                fields["step"] = payload.key
        await connections[txn].send(protocol.request(kind, next(ids), **fields))
        await transport.sleep(SETTLE)


def plain_site(transport):
    return [SiteServer(1, transport=transport, deadlock_policy="none")]


def replica_group(replicas):
    def build(transport):
        group = ReplicaGroup(1, replicas)
        clock = LogicalClock()
        return [
            ReplicaServer(
                group,
                index,
                transport=transport,
                clock=clock,
                peers=group.addresses,
                deadlock_policy="none",
            )
            for index in range(replicas)
        ]

    return build


def run_script(build, frames):
    """Boot the servers *build* makes, ship *frames* to the first, let
    its log ships (if any) drain, and snapshot every server."""

    async def scenario():
        transport = MemoryTransport()
        servers = build(transport)
        for server in servers:
            await server.start()
        try:
            leader = servers[0]
            await ship(transport, leader.site, frames)
            if servers[1:]:
                # Ordinary mutations ship coalesced, so the tail of the
                # log may still be waiting for the next ship: force it.
                await leader._ship_outstanding()
            return [snapshot(server) for server in servers]
        finally:
            for server in servers:
                await server.stop()
            await transport.close()

    return asyncio.run(scenario())


draws = st.lists(
    st.tuples(
        st.sampled_from(("T1", "T2", "T3")),
        st.sampled_from(STEP_KINDS + STEP_KINDS + ("release", "commit")),
        st.integers(0, 11),
        st.integers(0, 2),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(draws=draws)
def test_every_framing_leaves_the_same_site_state(draws):
    script = legal_script(draws)
    for build in (plain_site, replica_group(1)):
        reference = run_script(build, frames_of(script, "single"))
        for framing in FRAMINGS[1:]:
            assert run_script(build, frames_of(script, framing)) == reference, framing


@settings(max_examples=40, deadline=None)
@given(draws=draws, framing=st.sampled_from(FRAMINGS))
def test_follower_replay_reaches_the_leaders_state(draws, framing):
    frames = frames_of(legal_script(draws), framing)
    leader, *followers = run_script(replica_group(3), frames)
    for follower in followers:
        assert follower["log"] == leader["log"]
        for part in ("held", "updates", "committed", "applied"):
            assert follower[part] == leader[part], part
