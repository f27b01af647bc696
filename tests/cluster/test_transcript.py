"""The reply transcript of one scripted site, pinned verbatim.

One :class:`SiteServer` on the memory transport is driven through
every way a step can be answered — as single frames and as ``batch``
frames — and the ordered list of ``(connection, reply)`` pairs it
produced must equal :data:`EXPECTED` dict for dict.  This is the
wire-level behaviour oracle of the site's step handling: a refactor of
how lock / unlock / update are executed or how a blocked wait is
concluded must leave every reply, its fields and its order unchanged.

Each transaction talks over its own connection (named after it); a
reader task per connection appends replies to one shared list in
arrival order, which on the memory transport is the order the site sent
them.  After each send the driver sleeps :data:`SETTLE` ticks so the
site finishes the step; :data:`GRANT_TIMEOUT` is long enough that only
the two waits the script sits out (``None`` lines) ever see it fire.
"""

import asyncio

from repro.cluster import protocol
from repro.cluster.siteserver import SiteServer
from repro.cluster.transport import MemoryTransport

GRANT_TIMEOUT = 40
SETTLE = 3


def steps(*specs):
    """Batch step dicts from ``(op, id, entity[, step key])`` tuples."""
    out = []
    for op, step_id, entity, *key in specs:
        step = {"op": op, "id": step_id, "entity": entity}
        if key:
            step["step"] = key[0]
        out.append(step)
    return out


#: The script: ``(transaction, kind, id, fields)`` sends, each followed
#: by a settle; a ``None`` line waits out a grant timeout instead.
SCRIPT = [
    # -- single frames ------------------------------------------------
    ("T1", "lock", 1, {"entity": "x"}),  # immediate grant
    ("T2", "lock", 1, {"entity": "x"}),  # queues behind T1
    ("T1", "lock", 2, {"entity": "x"}),  # retried while held: re-granted
    ("T2", "lock", 2, {"entity": "x"}),  # retried while queued: superseded
    ("T1", "update", 3, {"entity": "x", "step": 1}),
    ("T1", "update", 4, {"entity": "x", "step": 1}),  # replay: deduped
    ("T3", "update", 1, {"entity": "x"}),  # without the lock: error
    ("T1", "unlock", 5, {"entity": "x"}),  # queue-then-grant for T2
    ("T3", "lock", 2, {"entity": "x"}),  # queues behind T2 ...
    None,  # ... until its grant timer fires
    ("T3", "lock", 3, {"entity": "y"}),
    ("T2", "lock", 3, {"entity": "y"}),  # T2 waits for T3
    ("T3", "lock", 4, {"entity": "x"}),  # closes the cycle: T3 is victim
    ("T4", "lock", 1, {"entity": "x"}),  # a waiter ...
    ("T4", "release", 2, {}),  # ... released while waiting
    ("T3", "release", 5, {}),  # the victim aborts: T2 gets y
    ("T2", "update", 4, {"entity": "x", "step": 2}),
    ("T2", "unlock", 5, {"entity": "x"}),
    ("T2", "unlock", 6, {"entity": "y"}),
    ("T1", "commit", 6, {}),
    ("T2", "commit", 7, {}),
    ("T1", "history", 7, {}),
    # -- the same through batch frames ----------------------------------
    (
        "T5",
        "batch",
        1,
        {"steps": steps(("lock", 10, "x"), ("update", 11, "x", 0), ("update", 12, "x", 0))},
    ),
    (
        "T6",
        "batch",
        1,
        {"steps": steps(("lock", 10, "x"), ("update", 11, "x", 0), ("unlock", 12, "x"))},
    ),  # queues; update and unlock are parked behind the lock
    ("T5", "batch", 2, {"steps": steps(("lock", 13, "x"))}),  # retried while held
    (
        "T5",
        "batch",
        3,
        {"steps": steps(("unlock", 14, "x"), ("update", 15, "x", 1), ("bogus", 16, "x"))},
    ),  # the unlock grants T6 and runs its parked continuation first
    ("T5", "batch", 4, {"steps": steps(("lock", 17, "y"), ("lock", 18, "z"))}),
    (
        "T6",
        "batch",
        2,
        {"steps": steps(("lock", 20, "y"), ("update", 21, "y", 1))},
    ),  # queues behind T5 with an update parked
    (
        "T6",
        "batch",
        3,
        {"steps": steps(("lock", 30, "y"), ("update", 31, "y", 1))},
    ),  # retried while queued: superseded, parked update cancelled
    None,  # grant timeout: the retry's lock and its parked update
    (
        "T6",
        "batch",
        4,
        {"steps": steps(("lock", 40, "x"), ("lock", 41, "y"), ("unlock", 42, "y"))},
    ),  # T6 holds x, waits for T5 on y
    ("T5", "batch", 5, {"steps": steps(("lock", 19, "x"), ("update", 50, "x", 2))}),
    # ^ closes the cycle: T6 (younger) is the victim, its parked unlock cancelled
    ("T6", "release", 5, {}),  # T5's queued lock is granted, its parked update runs
    ("T7", "batch", 1, {"steps": steps(("lock", 10, "x"), ("update", 11, "x", 0))}),
    ("T7", "release", 2, {}),  # a queued batched lock released: aborted + cancelled
    ("T5", "commit", 6, {}),
    ("T5", "history", 7, {}),
]

EXPECTED = [
    ("T1", {"type": "reply", "id": 1, "status": "granted", "entity": "x"}),
    ("T1", {"type": "reply", "id": 2, "status": "granted", "entity": "x"}),
    ("T2", {"type": "reply", "id": 1, "status": "superseded", "entity": "x"}),
    ("T1", {"type": "reply", "id": 3, "status": "applied"}),
    ("T1", {"type": "reply", "id": 4, "status": "applied"}),
    (
        "T3",
        {
            "type": "reply",
            "id": 1,
            "status": "error",
            "reason": "T3 updates 'x' without holding its lock",
        },
    ),
    ("T2", {"type": "reply", "id": 2, "status": "granted", "entity": "x"}),
    ("T1", {"type": "reply", "id": 5, "status": "released"}),
    ("T3", {"type": "reply", "id": 2, "status": "timeout", "entity": "x"}),
    ("T3", {"type": "reply", "id": 3, "status": "granted", "entity": "y"}),
    (
        "T3",
        {
            "type": "reply",
            "id": 4,
            "status": "deadlock",
            "entity": "x",
            "cycle": ["T3", "T2"],
            "victim": "T3",
        },
    ),
    ("T4", {"type": "reply", "id": 1, "status": "aborted", "entity": "x"}),
    ("T4", {"type": "reply", "id": 2, "status": "aborted"}),
    ("T2", {"type": "reply", "id": 3, "status": "granted", "entity": "y"}),
    ("T3", {"type": "reply", "id": 5, "status": "aborted"}),
    ("T2", {"type": "reply", "id": 4, "status": "applied"}),
    ("T2", {"type": "reply", "id": 5, "status": "released"}),
    ("T2", {"type": "reply", "id": 6, "status": "released"}),
    ("T1", {"type": "reply", "id": 6, "status": "committed"}),
    ("T2", {"type": "reply", "id": 7, "status": "committed"}),
    ("T1", {"type": "reply", "id": 7, "status": "history", "site_orders": {"x": ["T1", "T2"]}}),
    (
        "T5",
        {
            "type": "reply",
            "id": 1,
            "status": "batch",
            "results": [
                {"id": 10, "status": "granted", "entity": "x"},
                {"id": 11, "status": "applied"},
                {"id": 12, "status": "applied"},
            ],
        },
    ),
    (
        "T6",
        {
            "type": "reply",
            "id": 1,
            "status": "batch",
            "results": [{"id": 10, "status": "queued", "entity": "x"}],
        },
    ),
    (
        "T5",
        {
            "type": "reply",
            "id": 2,
            "status": "batch",
            "results": [{"id": 13, "status": "granted", "entity": "x"}],
        },
    ),
    ("T6", {"type": "reply", "id": 10, "status": "granted", "entity": "x"}),
    ("T6", {"type": "reply", "id": 11, "status": "applied"}),
    ("T6", {"type": "reply", "id": 12, "status": "released", "entity": "x"}),
    (
        "T5",
        {
            "type": "reply",
            "id": 3,
            "status": "batch",
            "results": [
                {"id": 14, "status": "released", "entity": "x"},
                {"id": 15, "status": "error", "reason": "T5 updates 'x' without holding its lock"},
                {"id": 16, "status": "error", "reason": "unknown batch op 'bogus'"},
            ],
        },
    ),
    (
        "T5",
        {
            "type": "reply",
            "id": 4,
            "status": "batch",
            "results": [
                {"id": 17, "status": "granted", "entity": "y"},
                {"id": 18, "status": "granted", "entity": "z"},
            ],
        },
    ),
    (
        "T6",
        {
            "type": "reply",
            "id": 2,
            "status": "batch",
            "results": [{"id": 20, "status": "queued", "entity": "y"}],
        },
    ),
    ("T6", {"type": "reply", "id": 20, "status": "superseded", "entity": "y"}),
    ("T6", {"type": "reply", "id": 21, "status": "cancelled", "entity": "y"}),
    (
        "T6",
        {
            "type": "reply",
            "id": 3,
            "status": "batch",
            "results": [{"id": 30, "status": "queued", "entity": "y"}],
        },
    ),
    ("T6", {"type": "reply", "id": 30, "status": "timeout", "entity": "y"}),
    ("T6", {"type": "reply", "id": 31, "status": "cancelled", "entity": "y"}),
    (
        "T6",
        {
            "type": "reply",
            "id": 4,
            "status": "batch",
            "results": [
                {"id": 40, "status": "granted", "entity": "x"},
                {"id": 41, "status": "queued", "entity": "y"},
            ],
        },
    ),
    (
        "T6",
        {
            "type": "reply",
            "id": 41,
            "status": "deadlock",
            "entity": "y",
            "cycle": ["T5", "T6"],
            "victim": "T6",
        },
    ),
    ("T6", {"type": "reply", "id": 42, "status": "cancelled", "entity": "y"}),
    (
        "T5",
        {
            "type": "reply",
            "id": 5,
            "status": "batch",
            "results": [{"id": 19, "status": "queued", "entity": "x"}],
        },
    ),
    ("T5", {"type": "reply", "id": 19, "status": "granted", "entity": "x"}),
    ("T5", {"type": "reply", "id": 50, "status": "applied"}),
    ("T6", {"type": "reply", "id": 5, "status": "aborted"}),
    (
        "T7",
        {
            "type": "reply",
            "id": 1,
            "status": "batch",
            "results": [{"id": 10, "status": "queued", "entity": "x"}],
        },
    ),
    ("T7", {"type": "reply", "id": 10, "status": "aborted", "entity": "x"}),
    ("T7", {"type": "reply", "id": 11, "status": "cancelled", "entity": "x"}),
    ("T7", {"type": "reply", "id": 2, "status": "aborted"}),
    ("T5", {"type": "reply", "id": 6, "status": "committed"}),
    (
        "T5",
        {
            "type": "reply",
            "id": 7,
            "status": "history",
            "site_orders": {"x": ["T1", "T2", "T5", "T5"]},
        },
    ),
]


async def drive(script):
    transport = MemoryTransport()
    server = SiteServer(1, transport=transport, grant_timeout=GRANT_TIMEOUT)
    await server.start()
    transcript = []
    connections = {}
    readers = []

    async def read(name, connection):
        while True:
            message = await connection.recv()
            if message is None:
                return
            transcript.append((name, message))

    for line in script:
        if line is None:
            await transport.sleep(2 * GRANT_TIMEOUT)
            continue
        txn, kind, request_id, fields = line
        if txn not in connections:
            connections[txn] = await transport.connect(1)
            readers.append(asyncio.ensure_future(read(txn, connections[txn])))
        fields = dict(fields)
        if kind != "history":
            fields["txn"] = txn
        if kind in ("lock", "batch"):
            fields["age"] = int(txn[1:])
        await connections[txn].send(protocol.request(kind, request_id, **fields))
        await transport.sleep(SETTLE)
    for reader in readers:
        reader.cancel()
    await transport.close()
    return transcript


def test_reply_transcript_is_pinned():
    transcript = asyncio.run(drive(SCRIPT))
    assert transcript == EXPECTED
