"""One networked lock-manager site.

A :class:`SiteServer` owns exactly the state the paper assigns a site:
the lock table of the entities stored there (a :class:`~repro.sim.
lockmanager.SiteLockManager`, FIFO-fair) plus the site-local total
order of update steps — the ground truth the final serializability
check is computed from.  It speaks the :mod:`repro.cluster.protocol`
over any :class:`~repro.cluster.transport.Transport` and takes part in
distributed deadlock detection by edge-chasing probes:

* when a lock request blocks, the site broadcasts a ``probe`` carrying
  the waiter's name, age and waiting site toward the blocker;
* a site that finds the probe's target blocked here extends the path
  and re-broadcasts; a target already on the path closes a cycle;
* the detecting site picks a victim with :func:`repro.faults.policies.
  choose_victim` (ages travel inside requests and probes) and sends
  ``resolve`` to the victim's waiting site, which answers the victim's
  pending lock request with ``status="deadlock"`` — the coordinator
  aborts and retries from there.

Optional per-site *grant timeouts* bound the wait when probes are lost
(e.g. under injected message drops): a request still queued after the
deadline is withdrawn and answered ``status="timeout"``.
"""

from __future__ import annotations

import asyncio
import random
import time

from ..faults.policies import choose_victim, validate_policy
from ..obs import distributed
from ..obs.events import EventLog
from ..obs.insight import ContentionTally
from ..obs.metrics import REGISTRY, Counter, Histogram
from ..sim.lockmanager import SiteLockManager
from . import protocol
from .netfaults import LogicalClock, NetworkFaultAdapter
from .transport import Connection, Transport, TransportError, encode_frame

#: Buckets for grant latency measured in site-local processed messages.
GRANT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0)


# Metrics are resolved by name, never cached at module scope: a cached
# handle would keep mutating an orphaned object after
# ``REGISTRY.reset()`` and leak one run's counts into the next.  A
# server binds its own children on first use — it is built after its
# run's reset and dies with the run.
def _messages_counter():
    return REGISTRY.counter(
        "repro_cluster_messages_total",
        "Protocol messages processed by cluster site servers.",
    )


def _grant_histogram():
    return REGISTRY.histogram(
        "repro_cluster_grant_latency_steps",
        "Site-local messages processed between a lock request queuing and its grant.",
        buckets=GRANT_BUCKETS,
    )


class _PendingLock:
    """A blocked lock request awaiting grant, timeout or deadlock."""

    __slots__ = (
        "connection",
        "request_id",
        "enqueued_at",
        "timer",
        "queued_ns",
        "span",
        "batch_rest",
        "last_probed",
    )

    def __init__(
        self,
        connection: Connection,
        request_id: int,
        enqueued_at: int,
        timer: asyncio.Task | None = None,
    ) -> None:
        self.connection = connection
        self.request_id = request_id
        self.enqueued_at = enqueued_at
        self.timer = timer
        #: Wall-clock queue-entry stamp for the lock-wait stage.
        self.queued_ns = time.time_ns()
        #: Open ``site.lock_wait`` span (traced runs only).
        self.span = None
        #: Steps of a batch parked behind this queued lock: they run
        #: when it is granted, and are answered ``cancelled`` when it
        #: concludes any other way.
        self.batch_rest = None
        #: Blocker this waiter last probed toward — reprobes for an
        #: unchanged wait-for edge are suppressed on fault-free runs.
        self.last_probed = None


class SiteServer:
    """The lock table, update log and deadlock detector of one site."""

    def __init__(
        self,
        site: int,
        *,
        transport: Transport,
        peers: tuple[int, ...] = (),
        deadlock_policy: str = "abort-youngest",
        grant_timeout: int | None = None,
        clock: LogicalClock | None = None,
        faults: NetworkFaultAdapter | None = None,
        event_log: EventLog | None = None,
        seed: int = 0,
    ) -> None:
        self.site = site
        self.transport = transport
        self.peers = tuple(p for p in peers if p != site)
        #: ``None`` disables probe-based resolution (timeouts only).
        self.deadlock_policy = validate_policy(deadlock_policy)
        self.grant_timeout = grant_timeout
        #: The run clock (:mod:`repro.cluster.netfaults`), shared by
        #: every server of a run; a lone server keeps its own.
        self.clock = clock if clock is not None else LogicalClock()
        self.faults = faults
        self.event_log = event_log
        self.locks = SiteLockManager(site, event_log=event_log)
        #: Always-on per-entity contention counters (hot-lock ranking).
        self.insight = ContentionTally()
        self.rng = random.Random(f"{seed}/site-{site}")
        self.processed = 0
        self.running = False
        #: (transaction, entity) -> blocked request bookkeeping.
        self._pending: dict[tuple[str, str], _PendingLock] = {}
        #: Admission ages carried inside requests and probes.
        self._ages: dict[str, int] = {}
        #: Per-entity update log (tentative until the txn commits).
        self._updates: dict[str, list[str]] = {}
        self._committed: set[str] = set()
        #: Request ids already applied per transaction (retry dedupe).
        self._applied_ids: dict[str, set[int]] = {}
        self._peer_connections: dict[int, Connection] = {}
        self._deferred_replies: list[asyncio.Task] = []
        #: Trace context of the message currently being handled, for
        #: re-injection into onward messages (probes, ships, votes).
        self._trace_ctx: dict | None = None
        #: (transaction, entity) -> wall-clock grant stamp (hold stage).
        self._grant_wall: dict[tuple[str, str], int] = {}
        #: Probes handled since the wait-for graph last changed, keyed
        #: by (target, path txns).  Re-processing an identical probe
        #: against an unchanged graph reproduces the identical result,
        #: so duplicates are skipped — the cache is cleared on every
        #: lock-table mutation, which is exactly when a re-sent probe
        #: can conclude differently.  This caps the probe storms that
        #: contention otherwise amplifies (every grant reprobes every
        #: waiter, and each hop re-broadcasts to every peer).
        self._probes_seen: set[tuple] = set()
        #: Message kind -> this site's ``repro_cluster_messages_total``
        #: child, and the grant histogram; bound on first use.  Metric
        #: children only — a cache of bound methods here would tie the
        #: server into a reference cycle and keep it alive until a full
        #: collection.
        self._message_counters: dict[str, Counter] = {}
        self._grant_latency: Histogram | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Register with the transport and begin serving."""
        await self.transport.listen(self.site, self._serve_connection)
        self.running = True

    async def stop(self) -> None:
        self.running = False
        for task in self._deferred_replies:
            task.cancel()
        for txn, entity in list(self._pending):
            self._end_wait(txn, entity, "shutdown")
        for connection in self._peer_connections.values():
            await connection.close()
        self._peer_connections.clear()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(self, connection: Connection) -> None:
        """Serve one inbound connection until the peer hangs up or
        sends a frame that does not decode; either way this end closes
        too, so the peer reads the end of the stream."""
        try:
            while (message := await connection.recv()) is not None:
                await self._process(connection, message)
        except protocol.ProtocolError:
            pass
        finally:
            await connection.close()

    async def _fault_gate(self, message: dict) -> bool:
        """Apply the injected-fault schedule to one inbound message;
        ``False`` means the message was dropped unprocessed."""
        # A crashed server stops consuming: stall until its windows close.
        while self.running and self.faults.site_down(self.site):
            if self.faults.ticks_while_down:
                self.clock.tick()
            await self.transport.sleep(1)
        return not self.faults.drop(
            self.site,
            message.get("type", "?"),
            transaction=message.get("txn"),
        )

    #: Message kinds kept off the event timeline (pure plumbing).
    QUIET_KINDS = (
        "history",
        "ping",
        "leader",
        "vote",
        "replicate",
        "fetch_log",
        "status",
    )

    async def _process(self, connection: Connection, message: dict) -> None:
        self.clock.tick()
        if self.faults is not None and not await self._fault_gate(message):
            return
        if not self.running:
            return
        self.processed += 1
        kind = message.get("type", "?")
        counter = self._message_counters.get(kind)
        if counter is None:
            counter = self._message_counters[kind] = _messages_counter().labels(
                site=str(self.site), kind=kind
            )
        counter.inc()
        if self.event_log is not None and kind not in self.QUIET_KINDS:
            self.event_log.emit(
                "msg",
                transaction=message.get("txn"),
                entity=message.get("entity"),
                site=self.site,
                detail=kind,
            )
        handler = self._handler_for(kind)
        if handler is None:
            if "id" in message:
                await self._safe_send(
                    connection,
                    protocol.reply(message["id"], "error", reason=f"unknown type {kind!r}"),
                )
            return
        previous_ctx = self._trace_ctx
        if "wire" not in message and "trace" not in message:
            # Nothing to measure and no span to parent.
            self._trace_ctx = None
            try:
                await handler(connection, message)
            finally:
                self._trace_ctx = previous_ctx
            return
        context, span = self._observe_frame(kind, message)
        with span:
            self._trace_ctx = context
            try:
                await handler(connection, message)
            finally:
                self._trace_ctx = previous_ctx

    def _observe_frame(self, kind: str, message: dict):
        """Record the server-queue stage of a stamped frame and build
        the remote-parented ``site.<kind>`` span of a traced one;
        returns the frame's trace context and the span to enter."""
        queue_ns = distributed.server_queue_ns(message)
        if queue_ns is not None:
            distributed.WIRE.observe("server_queue", queue_ns, self.site)
        context = distributed.extract(message)
        span = distributed.remote_span(f"site.{kind}", context)
        if span:
            span.set(site=self.site)
            if message.get("txn") is not None:
                span.set(txn=message["txn"])
            if message.get("entity") is not None:
                span.set(entity=message["entity"])
            if queue_ns is not None:
                span.set(server_queue_ns=queue_ns)
            wire_ns = distributed.transport_ns(message)
            if wire_ns is not None:
                span.set(transport_ns=wire_ns)
        return context, span

    def _handler_for(self, kind: str):
        """The dispatch point: the method serving *kind* — called with
        the connection and the message, it returns the awaitable that
        serves them — or ``None`` for an unknown kind.
        :class:`repro.replica.server.ReplicaServer` guards leader-only
        kinds here."""
        return getattr(self, f"_on_{kind}", None)

    async def _safe_send(self, connection: Connection, message: dict) -> None:
        try:
            await connection.send(message)
        except TransportError:
            pass

    def _log_mutation(self, op: str, **fields) -> None:
        """Replication hook: called at every durable state change
        (grant, unlock, update, release).  A plain site has no
        replicas, so this is a no-op; :class:`repro.replica.server.
        ReplicaServer` overrides it to append to the replication log
        and ship to followers."""

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    async def _on_lock(self, connection: Connection, message: dict) -> None:
        txn = message["txn"]
        entity = message["entity"]
        self._ages.setdefault(txn, int(message.get("age", 0)))
        if await self._lock_step(connection, txn, entity, message["id"]) == "granted":
            await self._safe_send(
                connection, protocol.reply(message["id"], "granted", entity=entity)
            )

    async def _on_unlock(self, connection: Connection, message: dict) -> None:
        await self._unlock_step(message["txn"], message["entity"])
        await self._safe_send(connection, protocol.reply(message["id"], "released"))

    async def _on_update(self, connection: Connection, message: dict) -> None:
        status, fields = self._update_step(message["txn"], message)
        await self._safe_send(connection, protocol.reply(message["id"], status, **fields))

    # ------------------------------------------------------------------
    # Batched steps
    # ------------------------------------------------------------------
    async def _on_batch(self, connection: Connection, message: dict) -> None:
        """Several steps of one transaction in one frame.

        Steps are processed strictly in the order shipped — the
        coordinator relies on this to pipeline a step behind its poset
        predecessors in the same batch.  Each step gets a per-step
        ``id``; outcomes known immediately ride back inline in one
        ``batch`` reply, a lock that queues is reported ``queued``
        inline and answered with its final status in a later individual
        frame.  Steps behind a queued lock are *parked* on its pending
        entry: they run (individually answered) when the lock is
        granted, and are answered ``cancelled`` when it concludes any
        other way — the coordinator treats ``cancelled`` like the
        failure that caused it and retries the attempt.
        """
        txn = message["txn"]
        self._ages.setdefault(txn, int(message.get("age", 0)))
        results: list[dict] = []
        await self._run_batch_steps(connection, txn, list(message.get("steps", ())), results)
        await self._safe_send(connection, protocol.reply(message["id"], "batch", results=results))

    async def _run_batch_steps(
        self,
        connection: Connection,
        txn: str,
        queue: list[dict],
        results: list[dict] | None = None,
    ) -> None:
        """Run batched steps in order through the step primitives;
        *results* collects outcomes for the single batch reply,
        ``None`` (the parked-continuation path) answers each step with
        an individual reply instead."""

        async def answer(step_id: int, status: str, **fields) -> None:
            if results is not None:
                results.append({"id": step_id, "status": status, **fields})
            else:
                await self._safe_send(connection, protocol.reply(step_id, status, **fields))

        while queue:
            step = queue.pop(0)
            op = step.get("op", "?")
            step_id = step["id"]
            entity = step.get("entity")
            if op == "lock":
                outcome = await self._lock_step(connection, txn, entity, step_id, queue)
                if outcome == "granted":
                    await answer(step_id, "granted", entity=entity)
                    continue
                # Queued (rest now parked on the pending entry) or
                # grant-delay-faulted (lock held, reply deferred):
                # either way the final status arrives in a later
                # individual frame.
                if results is not None:
                    results.append({"id": step_id, "status": "queued", "entity": entity})
                if outcome == "queued":
                    return
            elif op == "unlock":
                await self._unlock_step(txn, entity)
                await answer(step_id, "released", entity=entity)
            elif op == "update":
                status, fields = self._update_step(txn, step)
                await answer(step_id, status, **fields)
            else:
                await answer(step_id, "error", reason=f"unknown batch op {op!r}")

    async def _cancel_batch_rest(self, pending: _PendingLock) -> None:
        """Answer every step parked behind *pending* with
        ``cancelled`` (its lock concluded without a grant)."""
        rest, pending.batch_rest = pending.batch_rest, None
        for step in rest or ():
            await self._safe_send(
                pending.connection,
                protocol.reply(step["id"], "cancelled", entity=step.get("entity")),
            )

    # ------------------------------------------------------------------
    # Step primitives
    # ------------------------------------------------------------------
    # A step has one executor.  These own every state change of lock /
    # unlock / update together with its bookkeeping; a framing (single
    # frame, batch loop, the parked continuation _promote runs) only
    # decides how the outcome is answered.
    async def _lock_step(
        self,
        connection: Connection,
        txn: str,
        entity: str,
        request_id: int,
        rest: list[dict] | None = None,
    ) -> str:
        """Execute one lock step; the caller answers it.

        ``"granted"``: the lock is held and the grant is due now.
        ``"deferred"``: held, but a grant-delay fault holds the reply,
        which :meth:`_deliver_delayed_grant` sends later.  ``"queued"``:
        the request waits — its pending entry owns *rest* (the steps
        behind it in the same batch) from here on, and the final status
        arrives in a later individual frame.
        """
        if self.locks.holder(entity) == txn:
            # Retried request whose original grant reply was lost.
            return self._record_grant(connection, request_id, txn, entity, 0)
        pending = self._pending.get((txn, entity))
        if pending is not None:
            # Retried while the original request is still queued: the
            # original waiter gave up client-side, so answer its id and
            # re-point the pending entry (keeping its queue slot and
            # timer) at the retry instead of installing a second entry
            # whose stale timer would fire prematurely.  A rest parked
            # behind the original is cancelled and replaced by the
            # retry's rest.
            await self._safe_send(
                pending.connection,
                protocol.reply(pending.request_id, "superseded", entity=entity),
            )
            await self._cancel_batch_rest(pending)
            pending.connection = connection
            pending.request_id = request_id
            pending.batch_rest = rest
            return "queued"
        self._probes_seen.clear()
        if self.locks.try_lock(entity, txn):
            distributed.WIRE.observe("lock_wait", 0, self.site)
            self.insight.granted(entity)
            return self._record_grant(connection, request_id, txn, entity, 0)
        self.insight.blocked(entity, len(self.locks.waiters(entity)))
        pending = _PendingLock(connection, request_id, self.processed)
        wait_span = distributed.remote_span("site.lock_wait", self._trace_ctx)
        if wait_span:
            pending.span = wait_span.__enter__()
            pending.span.set(site=self.site, txn=txn, entity=entity)
        pending.batch_rest = rest
        self._pending[(txn, entity)] = pending
        if self.grant_timeout is not None:
            pending.timer = asyncio.ensure_future(self._expire(txn, entity, self.grant_timeout))
        blocker = self._blocker_of(txn, entity)
        if blocker is not None and self.deadlock_policy is not None:
            pending.last_probed = blocker
            await self._broadcast_probe(
                path=[{"txn": txn, "age": self._ages[txn], "site": self.site}],
                target=blocker,
            )
        return "queued"

    async def _unlock_step(self, txn: str, entity: str) -> None:
        """Execute one unlock step (a no-op unless *txn* holds
        *entity*: a replayed unlock must stay idempotent)."""
        if self.locks.holder(entity) == txn:
            self.locks.unlock(entity, txn)
            self._probes_seen.clear()
            self._observe_hold(txn, entity)
            self._log_mutation("unlock", txn=txn, entity=entity)
            await self._promote(entity)

    def _update_step(self, txn: str, spec: dict) -> tuple[str, dict]:
        """Execute one update step; *spec* is the single frame or the
        batch step (both carry ``entity``, ``id`` and the optional
        ``step`` key).  Returns the status and fields to answer."""
        entity = spec.get("entity")
        if self.locks.holder(entity) != txn:
            return "error", {"reason": f"{txn} updates {entity!r} without holding its lock"}
        # Dedupe on the coordinator-chosen step key when present: it is
        # stable across connections, so a step replayed after a leader
        # failover (new connection, new request ids) stays idempotent.
        key = ("step", spec["step"]) if "step" in spec else ("id", spec["id"])
        if self._apply_update(txn, entity, key):
            self._log_mutation("update", txn=txn, entity=entity, key=list(key))
            if self.event_log is not None:
                self.event_log.emit("step", transaction=txn, entity=entity, site=self.site)
        return "applied", {}

    # ------------------------------------------------------------------
    # Durable mutations of the update log
    # ------------------------------------------------------------------
    # One primitive each; the handlers here and a follower's record
    # replay (ReplicaServer._apply_record) both call them, so a replica
    # applies the same operation its leader applied.
    def _apply_update(self, txn: str, entity: str, key: tuple) -> bool:
        """Append *txn* to *entity*'s tentative update order unless
        *key* was applied before; returns whether it was appended."""
        applied = self._applied_ids.setdefault(txn, set())
        if key in applied:
            return False
        applied.add(key)
        self._updates.setdefault(entity, []).append(txn)
        return True

    def _apply_release(self, txn: str) -> list[str]:
        """Abort *txn*: drop its locks and queue slots, scrub its
        tentative updates (a committed transaction's stay) and forget
        its dedupe keys.  Returns the entities it held."""
        released = self.locks.release_all(txn)
        if txn not in self._committed:
            for order in self._updates.values():
                while txn in order:
                    order.remove(txn)
        self._applied_ids.pop(txn, None)
        return released

    def _apply_commit(self, txn: str) -> bool:
        """Promote *txn*'s tentative updates into the committed site
        orders; ``False`` when it already was committed."""
        if txn in self._committed:
            return False
        self._committed.add(txn)
        return True

    async def _on_release(self, connection: Connection, message: dict) -> None:
        """Abort: drop queue entries, locks and tentative updates."""
        txn = message["txn"]
        vacated = self.locks.queued_entities(txn)
        for entity in self._waiting_entities(txn):
            # A no-op for a wait a racing timeout or resolve answered
            # between the snapshot above and here.  The queue slots are
            # left to the release below, which drops them all at once.
            await self._conclude(txn, entity, "aborted", withdraw=False)
        released = self._apply_release(txn)
        self._probes_seen.clear()
        for entity in released:
            self._observe_hold(txn, entity)
        self._log_mutation("release", txn=txn)
        if self.event_log is not None:
            self.event_log.emit(
                "abort",
                transaction=txn,
                site=self.site,
                detail=f"released {len(released)} locks",
            )
        for entity in released:
            await self._promote(entity)
        # Queues the aborter merely waited in have a changed wait-for
        # shape too (its successors moved up a slot).
        for entity in vacated:
            if entity not in released:
                await self._promote(entity)
                await self._reprobe(entity)
        await self._safe_send(connection, protocol.reply(message["id"], "aborted"))

    async def _on_commit(self, connection: Connection, message: dict) -> None:
        txn = message["txn"]
        self._apply_commit(txn)
        if self.event_log is not None:
            self.event_log.emit("complete", transaction=txn, site=self.site)
        await self._safe_send(connection, protocol.reply(message["id"], "committed"))

    async def _on_history(self, connection: Connection, message: dict) -> None:
        orders = {
            entity: [txn for txn in order if txn in self._committed]
            for entity, order in sorted(self._updates.items())
        }
        await self._safe_send(
            connection,
            protocol.reply(message["id"], "history", site_orders=orders),
        )

    async def _on_ping(self, connection: Connection, message: dict) -> None:
        await self._safe_send(
            connection,
            protocol.reply(message["id"], "pong", site=self.site),
        )

    def _status_payload(self) -> dict:
        """The live-introspection snapshot of this site: lock table
        (holders + FIFO wait queues), blocked requests with grant-timer
        state, local wait-for edges (same semantics the edge-chasing
        probes use), and the hottest entities.  :class:`repro.replica.
        server.ReplicaServer` extends it with lease/log state."""
        held = self.locks.held_entities()
        waiting = {entity for (_, entity) in self._pending}
        lock_table = [
            {
                "entity": entity,
                "holder": held.get(entity),
                "waiters": list(self.locks.waiters(entity)),
            }
            for entity in sorted(set(held) | waiting)
        ]
        pending_rows = []
        wait_for = []
        for (txn, entity), pending in sorted(self._pending.items()):
            pending_rows.append(
                {
                    "txn": txn,
                    "entity": entity,
                    "enqueued_at": pending.enqueued_at,
                    "age": self.processed - pending.enqueued_at,
                    "timer": pending.timer is not None,
                }
            )
            blocker = self._blocker_of(txn, entity)
            if blocker is not None:
                wait_for.append([txn, blocker])
        return {
            "site": self.site,
            "role": "site",
            "processed": self.processed,
            "committed": len(self._committed),
            "grant_timeout": self.grant_timeout,
            "deadlock_policy": self.deadlock_policy,
            "lock_table": lock_table,
            "pending": pending_rows,
            "wait_for": wait_for,
            "contention": self.insight.rows(limit=8),
        }

    async def _on_status(self, connection: Connection, message: dict) -> None:
        await self._safe_send(
            connection,
            protocol.reply(message["id"], "status", **self._status_payload()),
        )

    # ------------------------------------------------------------------
    # Grants, promotion, timeouts
    # ------------------------------------------------------------------
    def _observe_hold(self, txn: str, entity: str) -> None:
        """Record the hold stage (grant to unlock/release) of one lock."""
        granted = self._grant_wall.pop((txn, entity), None)
        if granted is not None:
            distributed.WIRE.observe("hold", time.time_ns() - granted, self.site)

    def _end_wait(self, txn: str, entity: str, result: str) -> _PendingLock | None:
        """Take a blocked request off the pending table: stop its grant
        timer, record the lock-wait stage and end its ``site.lock_wait``
        span (if any) with the outcome in *result*.  ``None`` when
        nothing is pending (a racing conclusion already took it)."""
        pending = self._pending.pop((txn, entity), None)
        if pending is None:
            return None
        if pending.timer is not None:
            pending.timer.cancel()
        waited = time.time_ns() - pending.queued_ns
        distributed.WIRE.observe("lock_wait", waited, self.site)
        self.insight.waited(entity, waited, result)
        span = pending.span
        if span is not None:
            span.set(result=result, lock_wait_ns=waited)
            span.__exit__(None, None, None)
            pending.span = None
        return pending

    async def _conclude(
        self, txn: str, entity: str, status: str, *, withdraw: bool = True, **fields
    ) -> bool:
        """Conclude a blocked wait any way but a grant: end the wait,
        give up its queue slot, answer the request *status* and answer
        the steps parked behind it ``cancelled``.  What differs per
        cause (promote, reprobe) stays with the caller.  ``False`` when
        nothing was pending."""
        pending = self._end_wait(txn, entity, status)
        if pending is None:
            return False
        if withdraw:
            self.locks.withdraw(entity, txn)
        await self._safe_send(
            pending.connection,
            protocol.reply(pending.request_id, status, entity=entity, **fields),
        )
        await self._cancel_batch_rest(pending)
        return True

    def _record_grant(
        self,
        connection: Connection,
        request_id: int,
        txn: str,
        entity: str,
        latency: int,
    ) -> str:
        """The bookkeeping of every grant — immediate, promoted, inside
        a batch or re-granted to a retry: metrics, the hold stamp, the
        replication log, grant-delay faults.  ``"granted"`` when the
        caller should answer now, ``"deferred"`` when a grant-delay
        fault took the reply over."""
        if self._grant_latency is None:
            self._grant_latency = _grant_histogram()
        self._grant_latency.observe(float(latency))
        if distributed.WIRE.stamping:
            self._grant_wall.setdefault((txn, entity), time.time_ns())
        self._log_mutation("grant", txn=txn, entity=entity)
        if self.faults is not None and self.faults.grant_delayed(entity, self.site):
            task = asyncio.ensure_future(
                self._deliver_delayed_grant(connection, request_id, entity)
            )
            self._deferred_replies.append(task)
            return "deferred"
        return "granted"

    async def _deliver_delayed_grant(
        self, connection: Connection, request_id: int, entity: str
    ) -> None:
        """GrantDelay as a message delay: hold the reply, not the lock."""
        while self.running and self.faults.grant_delayed(entity, self.site):
            self.clock.tick()
            await self.transport.sleep(1)
        await self._safe_send(connection, protocol.reply(request_id, "granted", entity=entity))

    async def _promote(self, entity: str) -> None:
        """Grant a freed entity to the longest-waiting requester."""
        self._probes_seen.clear()
        head = self.locks.next_waiter(entity)
        if head is None or self.locks.holder(entity) is not None:
            return
        pending = self._pending.get((head, entity))
        if pending is None:
            # Withdrawn (timeout/abort) but still queued: clean up and
            # look at the next waiter.
            self.locks.withdraw(entity, head)
            await self._promote(entity)
            return
        if not self.locks.try_lock(entity, head):  # pragma: no cover
            return
        self._end_wait(head, entity, "granted")
        granted = self._record_grant(
            pending.connection,
            pending.request_id,
            head,
            entity,
            self.processed - pending.enqueued_at,
        )
        if granted == "granted":
            await self._safe_send(
                pending.connection,
                protocol.reply(pending.request_id, "granted", entity=entity),
            )
        rest, pending.batch_rest = pending.batch_rest, None
        if rest:
            # The grant unparks the rest of the waiter's batch; each
            # remaining step is answered with an individual reply.
            await self._run_batch_steps(pending.connection, head, rest)
        # The remaining waiters now wait for the new holder.
        await self._reprobe(entity)

    async def _expire(self, txn: str, entity: str, timeout: int) -> None:
        """Withdraw a request still queued after *timeout* ticks."""
        await self.transport.sleep(timeout)
        pending = self._pending.get((txn, entity))
        if pending is None:
            return
        pending.timer = None  # this very task: concluding must not cancel it
        self._probes_seen.clear()
        if self.event_log is not None:
            self.event_log.emit(
                "deadlock",
                transaction=txn,
                entity=entity,
                site=self.site,
                detail=f"lock-grant timeout after {timeout} ticks",
            )
        await self._conclude(txn, entity, "timeout")
        await self._promote(entity)
        await self._reprobe(entity)

    # ------------------------------------------------------------------
    # Deadlock detection (edge-chasing probes)
    # ------------------------------------------------------------------
    async def _reprobe(self, entity: str) -> None:
        """Re-launch probes for everyone still waiting on *entity*.

        Wait-for edges change whenever the entity's holder or queue
        changes (a grant, a withdrawn waiter, an abort) — a cycle that
        only *becomes* minimal then would never be seen by the probes
        sent at block time alone.
        """
        if self.deadlock_policy is None:
            return
        for txn, ent in list(self._pending):
            if ent != entity:
                continue
            blocker = self._blocker_of(txn, ent)
            if blocker is None:
                continue
            pending = self._pending.get((txn, ent))
            if pending is not None:
                # A reprobe can only conclude something new when this
                # waiter's own wait-for edge changed: cycles through an
                # unchanged edge are found by the probe the *new* edge
                # launches at block time, extended through this one by
                # _handle_probe.  Fault injection can drop that probe,
                # so lossy runs keep the unconditional resend.
                if self.faults is None and pending.last_probed == blocker:
                    continue
                pending.last_probed = blocker
            await self._broadcast_probe(
                path=[{"txn": txn, "age": self._ages.get(txn, 0), "site": self.site}],
                target=blocker,
            )

    def _blocker_of(self, txn: str, entity: str) -> str | None:
        """Who *txn* waits for on *entity*: the holder, or the waiter
        immediately ahead in the FIFO queue."""
        holder = self.locks.holder(entity)
        queue = self.locks.waiters(entity)
        if txn not in queue:
            return None
        index = queue.index(txn)
        if index > 0:
            return queue[index - 1]
        return holder

    def _waiting_entities(self, txn: str) -> list[str]:
        return [e for (t, e) in self._pending if t == txn]

    async def _peer_connection(self, site: int) -> Connection | None:
        connection = self._peer_connections.get(site)
        if connection is None:
            try:
                connection = await self.transport.connect(site)
            except TransportError:
                return None
            self._peer_connections[site] = connection
        return connection

    async def _broadcast_probe(self, *, path: list[dict], target: str) -> None:
        """Send the probe everywhere the target might be waiting
        (including this site).

        Identical (path, target) probes are suppressed until the local
        wait-for graph changes: against an unchanged graph a duplicate
        probe extends to the same hops and finds the same cycles, so
        resending it only multiplies frames.  Every lock-table mutation
        clears :attr:`_probes_seen`, which is exactly when a repeat of
        an old probe could conclude something new.
        """
        key = (target, tuple((entry["txn"], entry["site"]) for entry in path))
        if key in self._probes_seen:
            return
        self._probes_seen.add(key)
        message = {"type": "probe", "path": path, "target": target}
        if self._trace_ctx is not None:
            message["trace"] = self._trace_ctx
        await self._handle_probe(message)
        # One encoding for every peer, its cost charged to the first
        # send; each peer is still dialled before its send, in order.
        frame, sent, encode_ns = encode_frame(message, self.transport.codec)
        for peer in self.peers:
            connection = self._peer_connections.get(peer)
            if connection is None:
                connection = await self._peer_connection(peer)
                if connection is None:
                    continue
            try:
                await connection.send_frame(frame, sent, encode_ns)
            except TransportError:
                pass
            encode_ns = 0

    def _on_probe(self, connection: Connection, message: dict):
        return self._handle_probe(message)

    async def _handle_probe(self, message: dict) -> None:
        if self.deadlock_policy is None:
            return
        target = message["target"]
        path = message["path"]
        on_path = {entry["txn"] for entry in path}
        if target in on_path:
            return  # the originating site already closed this cycle
        for entry in path:
            self._ages.setdefault(entry["txn"], int(entry["age"]))
        for entity in self._waiting_entities(target):
            blocker = self._blocker_of(target, entity)
            if blocker is None:
                continue
            extended = path + [{"txn": target, "age": self._ages.get(target, 0), "site": self.site}]
            member_names = [entry["txn"] for entry in extended]
            if blocker in member_names:
                cycle = member_names[member_names.index(blocker) :]
                await self._resolve_cycle(cycle, extended)
            else:
                await self._broadcast_probe(path=extended, target=blocker)

    async def _resolve_cycle(self, cycle: list[str], path: list[dict]) -> None:
        ages = {name: self._ages.get(name, 0) for name in cycle}
        victim = choose_victim(self.deadlock_policy, cycle, ages=ages, rng=self.rng)
        if self.event_log is not None:
            self.event_log.emit(
                "deadlock",
                transaction=victim,
                site=self.site,
                detail=f"cycle {' -> '.join(cycle)}; victim {victim}",
            )
        victim_site = next(
            (entry["site"] for entry in path if entry["txn"] == victim),
            self.site,
        )
        message = {"type": "resolve", "victim": victim, "cycle": cycle}
        if self._trace_ctx is not None:
            message["trace"] = self._trace_ctx
        if victim_site == self.site:
            await self._handle_resolve(message)
            return
        connection = self._peer_connections.get(victim_site)
        if connection is None:
            connection = await self._peer_connection(victim_site)
            if connection is None:
                return
        try:
            await connection.send(message)
        except TransportError:
            pass

    def _on_resolve(self, connection: Connection, message: dict):
        return self._handle_resolve(message)

    async def _handle_resolve(self, message: dict) -> None:
        """Answer the victim's pending lock request with ``deadlock``."""
        victim = message["victim"]
        self._probes_seen.clear()
        for entity in self._waiting_entities(victim):
            if await self._conclude(
                victim, entity, "deadlock", victim=victim, cycle=message.get("cycle", [])
            ):
                await self._promote(entity)
                await self._reprobe(entity)
