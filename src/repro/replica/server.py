"""One replica of a logical site: a SiteServer that ships its log.

A :class:`ReplicaServer` is a :class:`~repro.cluster.siteserver.
SiteServer` listening on a replica address (``site * 1000 + index``)
with three roles layered on top:

**Leader** — serves client traffic exactly like a plain site, but
every durable mutation (grant, unlock, update, release, commit) is
appended to a :class:`~repro.replica.log.ReplicationLog` and shipped
to the group's followers.  Ordinary mutations ship asynchronously
(coalesced); a ``commit`` ships **synchronously** — the leader awaits
acks from every non-suspect follower before answering ``committed``,
which is the acked commit point the never-lost-after-failover
guarantee rests on.

**Follower** — answers client requests ``not-leader`` (with a redirect
hint), adopts shipped records in sequence and applies them to its own
lock table and update log, so its state trails the leader's by at most
the in-flight batch.

**Candidate** — a follower poked by a ``leader`` query whose
``suspect`` names its current leader (or whose lease view has
expired) campaigns: it picks an epoch above every one it has promised,
collects single-decree-Paxos-style votes (granted iff the epoch beats
the voter's promise), and on majority quorum catches up from the most
advanced voter (``fetch_log``) before assuming leadership.  Epoch
fencing stops the old leader's *ships*: they are answered ``stale``,
which demotes it.  Until then it still serves client traffic — the
open hole docs/replication.md describes.

There are no background timers — every transition is message-driven,
so memory-transport runs remain deterministic.
"""

from __future__ import annotations

import asyncio

from ..cluster import protocol
from ..cluster.coordinator import _SiteClient
from ..cluster.netfaults import LogicalClock
from ..cluster.siteserver import SiteServer
from ..cluster.transport import Connection, TransportError
from ..obs import trace
from ..obs.events import EventLog
from .faults import ReplicaFaultAdapter
from .group import ReplicaGroup
from .log import ReplicationLog

#: Kinds only the lease leader serves; followers redirect.
LEADER_ONLY_KINDS = ("lock", "unlock", "update", "release", "commit", "batch")

#: Records per ``fetch_log`` reply (bounds catch-up frame sizes).
FETCH_LIMIT = 5000

#: Default wall-clock bound on one vote round trip to a peer.
ELECTION_TIMEOUT = 0.25

#: Wall-clock bound on one ship or ``fetch_log`` round trip to a peer.
REPLICATION_TIMEOUT = 0.5


class ReplicaServer(SiteServer):
    """One member of a :class:`~repro.replica.group.ReplicaGroup`."""

    def __init__(
        self,
        group: ReplicaGroup,
        index: int,
        *,
        transport,
        peers: tuple[int, ...] = (),
        deadlock_policy: str = "abort-youngest",
        grant_timeout: int | None = None,
        clock: LogicalClock | None = None,
        faults: ReplicaFaultAdapter | None = None,
        event_log: EventLog | None = None,
        seed: int = 0,
        election_timeout: float = ELECTION_TIMEOUT,
    ) -> None:
        super().__init__(
            group.addresses[index],
            transport=transport,
            peers=peers,
            deadlock_policy=deadlock_policy,
            grant_timeout=grant_timeout,
            clock=clock,
            faults=faults,
            event_log=event_log,
            seed=seed,
        )
        self.group = group
        self.index = index
        self.address = group.addresses[index]
        self.log = ReplicationLog()
        self.election_timeout = election_timeout
        #: Replica 0 boots as leader of epoch 1; everyone agrees.
        self.role = "leader" if index == 0 else "follower"
        self.epoch = 1
        self.promised_epoch = 1
        self.leader_address: int | None = group.addresses[0]
        self.leader_seen_at = 0
        self._ship_clients: dict[int, _SiteClient] = {}
        self._shipped: dict[int, int] = {}
        #: Followers that stopped acking ships; excluded from the
        #: write-all-available commit barrier until the next election.
        self._suspect_followers: set[int] = set()
        self._ship_lock = asyncio.Lock()
        self._ship_task: asyncio.Task | None = None
        self._campaigning = False
        self._campaign_lock = asyncio.Lock()
        # Followers mirror lock-table mutations by record replay; mute
        # their lock manager's event stream so the timeline carries
        # each grant/release once (from the leader).
        self._lock_events = self.locks.event_log
        if not self.is_leader():
            self.locks.event_log = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def is_leader(self) -> bool:
        return self.role == "leader"

    def _followers(self) -> tuple[int, ...]:
        return tuple(a for a in self.group.addresses if a != self.address)

    async def start(self) -> None:
        await super().start()
        if self.is_leader():
            self.group.record_leader(self.address, self.epoch, self.clock.now)

    async def stop(self) -> None:
        if self._ship_task is not None:
            self._ship_task.cancel()
        # Snapshot: a cancelled ship task's cleanup (or a concurrent
        # _ship_to failure) may drop entries while we close.
        clients, self._ship_clients = dict(self._ship_clients), {}
        for client in clients.values():
            await client.close()
        await super().stop()

    # ------------------------------------------------------------------
    # Leader-only guard on client traffic
    # ------------------------------------------------------------------
    def _handler_for(self, kind: str):
        """The one guard: a follower answers every leader-only kind
        with the redirect instead of its handler.  For ``batch`` the
        redirect is batch-level: the coordinator resolves every step of
        a not-leader batch against the same redirect and replays the
        attempt at the new leader."""
        if kind in LEADER_ONLY_KINDS and not self.is_leader():
            return self._redirect
        return super()._handler_for(kind)

    async def _redirect(self, connection: Connection, message: dict) -> None:
        await self._safe_send(
            connection,
            protocol.reply(
                message["id"],
                "not-leader",
                leader=self.leader_address,
                epoch=self.epoch,
            ),
        )

    # ------------------------------------------------------------------
    # Log shipping
    # ------------------------------------------------------------------
    def _log_mutation(self, op: str, **fields) -> None:
        self.log.append(op, **fields)
        self._schedule_ship()

    def _schedule_ship(self) -> None:
        if not self._followers():
            return
        if self._ship_task is None or self._ship_task.done():
            self._ship_task = asyncio.ensure_future(self._ship_outstanding())

    async def _ship_outstanding(self) -> None:
        """Ship every unacked record to every non-suspect follower."""
        async with self._ship_lock:
            if not self.is_leader():
                return
            for follower in self._followers():
                if follower in self._suspect_followers:
                    continue
                await self._ship_to(follower)
                if not self.is_leader():
                    return
            self.group.note_lag(self._lag())

    def _lag(self) -> int:
        """Records the furthest-behind follower has not acked."""
        return max(
            (self.log.seq - self._shipped.get(f, 0) for f in self._followers()),
            default=0,
        )

    async def _ship_to(self, follower: int) -> None:
        records = self.log.since(self._shipped.get(follower, 0))
        if not records:
            return
        client = self._ship_clients.get(follower)
        if client is None:
            try:
                connection = await self.transport.connect(follower)
            except TransportError:
                self._suspect_followers.add(follower)
                return
            client = _SiteClient(connection, address=follower)
            self._ship_clients[follower] = client
        try:
            fields = {
                "epoch": self.epoch,
                "leader": self.address,
                "records": records,
            }
            if self._trace_ctx is not None:
                # Ships triggered by a traced client mutation parent
                # the follower's replicate span under that request.
                fields["trace"] = self._trace_ctx
            reply = await client.request(
                "replicate",
                timeout=REPLICATION_TIMEOUT,
                **fields,
            )
        except TransportError:
            self._suspect_followers.add(follower)
            await self._drop_ship_client(follower)
            return
        status = reply.get("status")
        if status == "ok":
            self._shipped[follower] = int(reply.get("seq", self.log.seq))
        elif status == "gap":
            # The follower is further behind than we believed (a lost
            # ack); rewind our view and let the next ship re-send.
            self._shipped[follower] = int(reply.get("seq", 0))
            self._schedule_ship()
        elif status == "stale":
            await self._accept_leader(reply.get("leader"), int(reply["epoch"]))
        else:  # "timeout" / "diverged": stop counting on this follower
            self._suspect_followers.add(follower)

    async def _drop_ship_client(self, follower: int) -> None:
        client = self._ship_clients.pop(follower, None)
        if client is not None:
            await client.close()

    # ------------------------------------------------------------------
    # Acked commit point
    # ------------------------------------------------------------------
    async def _on_commit(self, connection: Connection, message: dict) -> None:
        txn = message["txn"]
        if self._apply_commit(txn):
            self.log.append("commit", txn=txn)
        await self._ship_outstanding()
        if not self.is_leader():
            # Deposed mid-ship by a ``stale`` reply: the client must
            # re-commit at the new leader (commit is idempotent).
            await self._redirect(connection, message)
            return
        if self.event_log is not None:
            self.event_log.emit("complete", transaction=txn, site=self.address)
        await self._safe_send(connection, protocol.reply(message["id"], "committed"))

    def _record_grant(
        self,
        connection: Connection,
        request_id: int,
        txn: str,
        entity: str,
        latency: int,
    ) -> str:
        self.group.note_grant(self.epoch, self.clock.now)
        return super()._record_grant(connection, request_id, txn, entity, latency)

    # ------------------------------------------------------------------
    # Replication protocol handlers
    # ------------------------------------------------------------------
    async def _on_replicate(self, connection: Connection, message: dict) -> None:
        epoch = int(message["epoch"])
        if epoch < self.promised_epoch or epoch < self.epoch:
            await self._safe_send(
                connection,
                protocol.reply(
                    message["id"],
                    "stale",
                    epoch=max(self.promised_epoch, self.epoch),
                    leader=self.leader_address,
                ),
            )
            return
        sender = int(message["leader"])
        if epoch > self.epoch or self.leader_address != sender or self.is_leader():
            await self._accept_leader(sender, epoch)
        self.leader_seen_at = self.clock.now
        for record in message.get("records", ()):
            seq = int(record["seq"])
            if seq <= self.log.seq:
                if self.log.records[seq - 1] != record:
                    # A suffix written by a fenced-off leader we voted
                    # past: refuse — this replica must not serve or
                    # lead until the operator intervenes.
                    await self._safe_send(
                        connection,
                        protocol.reply(message["id"], "diverged", seq=self.log.seq),
                    )
                    return
                continue
            if seq != self.log.seq + 1:
                await self._safe_send(
                    connection,
                    protocol.reply(message["id"], "gap", seq=self.log.seq),
                )
                return
            self.log.adopt(record)
            self._apply_record(record)
        await self._safe_send(
            connection, protocol.reply(message["id"], "ok", seq=self.log.seq)
        )

    async def _on_vote(self, connection: Connection, message: dict) -> None:
        epoch = int(message["epoch"])
        if epoch > self.promised_epoch:
            self.promised_epoch = epoch
            await self._safe_send(
                connection,
                protocol.reply(message["id"], "granted", seq=self.log.seq, epoch=epoch),
            )
            return
        await self._safe_send(
            connection,
            protocol.reply(
                message["id"],
                "denied",
                epoch=self.promised_epoch,
                leader=self.leader_address,
            ),
        )

    async def _on_fetch_log(self, connection: Connection, message: dict) -> None:
        since = int(message.get("since", 0))
        records = self.log.since(since, limit=FETCH_LIMIT)
        await self._safe_send(
            connection,
            protocol.reply(message["id"], "log", records=records, seq=self.log.seq),
        )

    async def _on_leader(self, connection: Connection, message: dict) -> None:
        suspect = message.get("suspect")
        if not self.is_leader():
            # Queries arriving during an election wait for it rather
            # than racing off with a known-stale answer; the re-check
            # under the lock sees whatever that election decided.
            async with self._campaign_lock:
                suspected_leader = (
                    suspect is not None and int(suspect) == self.leader_address
                )
                if not self.is_leader() and (
                    suspected_leader or self._lease_expired()
                ):
                    await self._campaign()
        await self._safe_send(
            connection,
            protocol.reply(
                message["id"],
                "leader",
                leader=self.leader_address,
                epoch=self.epoch,
                site=self.address,
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _status_payload(self) -> dict:
        """The base site snapshot plus replication state.

        ``status`` is deliberately *not* in :data:`LEADER_ONLY_KINDS`:
        any replica answers, so an operator can ask a follower what it
        believes about the lease while the leader is unreachable.
        """
        payload = super()._status_payload()
        payload.update(
            role=self.role,
            replica=self.index,
            address=self.address,
            epoch=self.epoch,
            promised_epoch=self.promised_epoch,
            leader=self.leader_address,
            leader_seen_at=self.leader_seen_at,
            clock=self.clock.now,
            lease_ticks=self.group.lease_ticks,
            lease_expired=self._lease_expired(),
            log_seq=self.log.seq,
            lag=self._lag() if self.is_leader() else 0,
            suspect_followers=sorted(self._suspect_followers),
        )
        return payload

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------
    def _lease_expired(self) -> bool:
        return self.clock.now - self.leader_seen_at > self.group.lease_ticks

    async def _campaign(self) -> bool:
        """One election attempt; True iff this replica took the lease."""
        self._campaigning = True
        with trace.detached_span("replica.campaign") as campaign_span:
            if campaign_span:
                campaign_span.set(address=self.address, clock=self.clock.now)
            won = await self._campaign_inner()
            if campaign_span:
                campaign_span.set(won=won, epoch=self.epoch)
            return won

    async def _campaign_inner(self) -> bool:
        try:
            # Stamp this replica's index into the epoch (epoch mod
            # group size) so simultaneous candidates always campaign
            # under *distinct* epochs — identical epochs deny each
            # other's votes and re-split identically forever under the
            # deterministic transport.
            epoch = max(self.promised_epoch, self.epoch) + 1
            while epoch % self.group.replicas != self.index:
                epoch += 1
            self.promised_epoch = epoch
            votes = 1
            best_seq = self.log.seq
            best_addr: int | None = None
            replies = await asyncio.gather(
                *(
                    self._one_shot(
                        peer, "vote", timeout=self.election_timeout, epoch=epoch
                    )
                    for peer in self._followers()
                )
            )
            for peer, reply in zip(self._followers(), replies):
                if reply is None or reply.get("status") != "granted":
                    continue
                votes += 1
                seq = int(reply.get("seq", 0))
                if seq > best_seq:
                    best_seq, best_addr = seq, peer
            if votes < self.group.quorum:
                return False
            if best_addr is not None:
                await self._catch_up(best_addr, best_seq)
            self._become_leader(epoch)
            return True
        finally:
            self._campaigning = False

    async def _catch_up(self, address: int, target_seq: int) -> None:
        """Raft-style: adopt the most advanced voter's log before
        leading, so every record an old leader acked survives."""
        while self.log.seq < target_seq:
            reply = await self._one_shot(
                address,
                "fetch_log",
                timeout=REPLICATION_TIMEOUT,
                since=self.log.seq,
            )
            if reply is None:
                return
            records = reply.get("records", ())
            progressed = False
            for record in records:
                if self.log.adopt(record):
                    self._apply_record(record)
                    progressed = True
            if not progressed:
                return

    def _become_leader(self, epoch: int) -> None:
        with trace.detached_span("replica.elect") as span:
            if span:
                span.set(address=self.address, epoch=epoch, clock=self.clock.now)
        self.role = "leader"
        self.epoch = epoch
        self.leader_address = self.address
        self.leader_seen_at = self.clock.now
        self.locks.event_log = self._lock_events
        # Follower ack state is unknown across the transition: re-ship
        # from the start and let seq-dedupe absorb the duplicates.
        self._shipped = {}
        self._suspect_followers = set()
        self.group.record_leader(self.address, epoch, self.clock.now)
        self._schedule_ship()

    async def _accept_leader(self, address, epoch: int) -> None:
        """Someone else leads *epoch*: follow them."""
        was_leader = self.is_leader()
        self.role = "follower"
        self.epoch = epoch
        self.promised_epoch = max(self.promised_epoch, epoch)
        self.leader_address = int(address) if address is not None else None
        self.leader_seen_at = self.clock.now
        self.locks.event_log = None
        if was_leader:
            # Waiters queued here will never be granted by this
            # replica; answer them now so their coordinators re-resolve
            # instead of burning a wall-clock timeout each.
            for txn, entity in list(self._pending):
                await self._conclude(
                    txn, entity, "not-leader", leader=self.leader_address, epoch=self.epoch
                )

    async def _one_shot(
        self, address: int, kind: str, *, timeout: float, **fields
    ) -> dict | None:
        """:meth:`Transport.ask` under this replica's trace context;
        ``None`` on any failure."""
        if self._trace_ctx is not None and "trace" not in fields:
            fields["trace"] = self._trace_ctx
        return await self.transport.ask(address, kind, timeout=timeout, **fields)

    # ------------------------------------------------------------------
    # Record replay (follower side)
    # ------------------------------------------------------------------
    def _apply_record(self, record: dict) -> None:
        """Mirror one shipped mutation into this replica's state —
        through the primitives the leader applied it with."""
        op = record["op"]
        txn = record.get("txn")
        entity = record.get("entity")
        if op == "grant":
            # Shipped in grant order, so the entity is free unless this
            # is a duplicate of a grant we already hold.
            if self.locks.holder(entity) is None:
                self.locks.try_lock(entity, txn)
        elif op == "unlock":
            if self.locks.holder(entity) == txn:
                self.locks.unlock(entity, txn)
        elif op == "update":
            key = record.get("key")
            self._apply_update(
                txn, entity, tuple(key) if key is not None else ("seq", record["seq"])
            )
        elif op == "release":
            self._apply_release(txn)
        elif op == "commit":
            self._apply_commit(txn)
