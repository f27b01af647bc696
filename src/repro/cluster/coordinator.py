"""The client side of a distributed transaction.

A :class:`Coordinator` executes one :class:`~repro.core.transaction.
Transaction` against a live cluster **as the partial order it is**: a
step is issued to its entity's site the moment every poset predecessor
has been *acknowledged*, steps at different sites run concurrently,
and steps at the same site flow down one connection in the site total
order the paper requires.  That invariant — never send a step before
all its predecessors are acked — is what the property test in
``tests/cluster/test_partial_order.py`` checks against random
workloads.

With ``batch=True`` the invariant relaxes to *pipelining*: all
currently-eligible steps bound for one site ship in a single ``batch``
frame, and a step co-batched **behind its predecessor in the same
frame** counts as ordered (the site processes batch steps strictly in
order), so a chain of same-site steps costs one round trip instead of
one per step.  Shorter round trips mean shorter lock hold windows,
which the E15 stage decomposition shows dominate cluster latency.

A reply of ``deadlock`` (a probe cycle chose this transaction as
victim), ``timeout`` (a site's lock-grant timer fired) or ``aborted``
(a racing release) makes the attempt fail: the coordinator sends
``release`` to every involved site, backs off on the transport's tick
clock (:func:`repro.faults.policies.backoff_ticks`, the simulator's
schedule), and retries up to
*max_retries* times before reporting ``retry-exhausted``.  On success
it sends ``commit`` everywhere, which is what promotes the
transaction's tentative updates into the committed site orders.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from ..core.transaction import Transaction
from ..faults.policies import backoff_ticks
from ..obs import distributed
from ..obs.metrics import REGISTRY
from . import protocol
from .transport import Connection, Transport, TransportError


# Resolved by name at use time — never cached in a module global, so a
# ``REGISTRY.reset()`` between runs cannot orphan a live handle.
def _outcomes_counter():
    return REGISTRY.counter(
        "repro_cluster_txn_outcomes_total",
        "Distributed transactions by final outcome.",
    )


@dataclass
class TxnOutcome:
    """How one distributed transaction ended."""

    name: str
    outcome: str  # "committed" | "partial-commit" | "retry-exhausted" | "error"
    retries: int = 0
    sites: list[int] = field(default_factory=list)
    detail: str = ""
    #: Sites whose ``commit`` was never acknowledged ("partial-commit"):
    #: their copy of the history may be missing this transaction, so
    #: the serializability audit must treat the run as incomplete.
    unacked_commit_sites: list[int] = field(default_factory=list)
    #: Wall-clock seconds from coordinator start to final outcome.
    #: Timing, not outcome: deliberately excluded from :meth:`to_dict`
    #: so the report's outcome fingerprint stays bit-deterministic.
    seconds: float = 0.0

    @property
    def committed(self) -> bool:
        """Fully committed — acknowledged at every involved site."""
        return self.outcome == "committed"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "retries": self.retries,
            "sites": self.sites,
            **({"detail": self.detail} if self.detail else {}),
            **(
                {"unacked_commit_sites": self.unacked_commit_sites}
                if self.unacked_commit_sites
                else {}
            ),
        }


class _SiteClient:
    """One connection to a site: sequential requests, routed replies.

    Requests carry ids; a reader task resolves the matching future.
    Replies for ids nobody waits on any more (a timed-out request, a
    cancelled branch) are dropped — the site may legally answer late.
    """

    def __init__(self, connection: Connection, address: int | None = None) -> None:
        self.connection = connection
        #: Transport id this client dialled (a replica address when a
        #: resolver is in play; the site id otherwise).
        self.address = address
        self._waiters: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await self.connection.recv()
                if message is None:
                    break
                future = self._waiters.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except asyncio.CancelledError:
            raise
        except Exception:
            pass
        for future in self._waiters.values():
            if not future.done():
                future.set_exception(TransportError("site connection closed"))
        self._waiters.clear()

    async def routed_reply(
        self, request_id: int, future: asyncio.Future, timeout: float | None
    ) -> dict:
        """Await the reply the reader routes to *future* (registered
        under *request_id*); after *timeout* give the wait up — the late
        answer is then dropped — and report ``timeout`` instead."""
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._waiters.pop(request_id, None)
            return {"type": "reply", "id": request_id, "status": "timeout"}

    async def request(self, kind: str, *, timeout: int | None = None, **fields) -> dict:
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[request_id] = future
        await self.connection.send(protocol.request(kind, request_id, **fields))
        return await self.routed_reply(request_id, future, timeout)

    async def request_batch(
        self,
        steps: list[dict],
        *,
        timeout: int | None = None,
        **fields,
    ) -> list[tuple[int, asyncio.Future]]:
        """Ship several *steps* of one transaction in a single frame.

        Each step spec is ``{"op", "entity"[, "step"]}``; this client
        assigns the per-step ids.  Returns ``(step_id, future)`` pairs
        aligned with *steps* — each future resolves to the step's
        *final* reply.  Inline batch results resolve them immediately,
        except ``queued``, whose final status arrives in a later
        individual frame (granted / timeout / deadlock / cancelled)
        through the ordinary id routing.  A batch-level failure (e.g. a
        replica's ``not-leader`` redirect, or a reply timeout) resolves
        every still-pending step future with that failure.
        """
        loop = asyncio.get_running_loop()
        wire_steps: list[dict] = []
        pairs: list[tuple[int, asyncio.Future]] = []
        for spec in steps:
            self._next_id += 1
            step_id = self._next_id
            future: asyncio.Future = loop.create_future()
            self._waiters[step_id] = future
            wire_steps.append({"id": step_id, **spec})
            pairs.append((step_id, future))
        self._next_id += 1
        batch_id = self._next_id
        batch_future: asyncio.Future = loop.create_future()
        self._waiters[batch_id] = batch_future
        await self.connection.send(
            protocol.request("batch", batch_id, steps=wire_steps, **fields)
        )
        try:
            reply = await self.routed_reply(batch_id, batch_future, timeout)
        except TransportError as exc:
            reply = {"type": "reply", "id": batch_id, "status": "error", "reason": str(exc)}
        if reply.get("status") == "batch":
            for result in reply.get("results", ()):
                step_id = result.get("id")
                if result.get("status") == "queued":
                    continue  # final status comes as an individual frame
                future = self._waiters.pop(step_id, None)
                if future is not None and not future.done():
                    future.set_result({"type": "reply", **result})
        else:
            # Batch-level failure: no step got an individual answer
            # (not-leader redirect, timeout, error) — fan the failure
            # out to every step that is still unresolved.
            failure = {key: value for key, value in reply.items() if key != "id"}
            for step_id, future in pairs:
                self._waiters.pop(step_id, None)
                if not future.done():
                    future.set_result(dict(failure))
        return pairs

    async def close(self) -> None:
        self._reader.cancel()
        try:
            await self._reader
        except (asyncio.CancelledError, Exception):
            pass
        await self.connection.close()


async def _dial(transport: Transport, address: int) -> _SiteClient:
    """A client on a fresh connection to *address*."""
    return _SiteClient(await transport.connect(address), address=address)


class SiteClientPool:
    """One persistent connection per site, shared by every coordinator
    of a run.

    Replaces the per-coordinator (per-transaction) dial pattern: the
    run opens each (pool, site) connection once, and every
    transaction's requests multiplex over it — request ids are
    per-client, so replies route correctly, and the site keyes its lock
    bookkeeping by (txn, entity), not by connection.  The replicated
    path keeps per-coordinator clients (failover re-dials are
    per-transaction decisions) and does not use the pool.
    """

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self._dials: dict[int, asyncio.Task] = {}

    async def client(self, site: int) -> _SiteClient:
        dial = self._dials.get(site)
        if dial is None:
            # The dict entry is installed before the first await so
            # concurrent coordinators share one dial, not race N.
            dial = asyncio.ensure_future(_dial(self.transport, site))
            self._dials[site] = dial
        try:
            return await asyncio.shield(dial)
        except (Exception, asyncio.CancelledError):
            if self._dials.get(site) is dial:
                del self._dials[site]
            raise

    async def close(self) -> None:
        dials, self._dials = dict(self._dials), {}
        for dial in dials.values():
            if dial.done() and not dial.cancelled() and dial.exception() is None:
                await dial.result().close()
            else:
                dial.cancel()


class Coordinator:
    """Executes one transaction's poset against the cluster."""

    #: Re-resolve-and-replay tries per request on the resolver path.
    FAILOVER_ATTEMPTS = 4

    def __init__(
        self,
        transaction: Transaction,
        *,
        transport: Transport,
        age: int = 0,
        max_retries: int = 3,
        request_timeout: float | None = None,
        seed: int = 0,
        on_send=None,
        on_ack=None,
        resolver=None,
        batch: bool = False,
        pool: SiteClientPool | None = None,
    ) -> None:
        self.transaction = transaction
        self.transport = transport
        self.age = age
        self.max_retries = max_retries
        self.request_timeout = request_timeout
        self.rng = random.Random(f"{seed}/{transaction.name}")
        self.on_send = on_send
        self.on_ack = on_ack
        #: Optional :class:`repro.replica.resolver.LeaderResolver`;
        #: when set, requests route to the site's current lease leader
        #: and a failed request re-resolves and replays idempotently.
        self.resolver = resolver
        #: Ship all currently-eligible same-site steps in one frame.
        self.batch = batch
        #: Run-shared connection pool; ignored on the resolver path,
        #: where failover re-dials are per-transaction decisions.
        self.pool = pool if resolver is None else None
        #: Execution plan, fixed across attempts: the steps in program
        #: order and each step's poset-predecessor indices (both read
        #: off the transaction's step plan, shared by every instance of
        #: the program), and each step's home site.  Index-based so the
        #: per-attempt scheduling loops compare small ints instead of
        #: re-deriving the poset (and hashing Step objects) on every wave.
        plan = transaction.plan()
        self._steps = plan.steps
        self._step_preds = plan.predecessor_ids
        self._step_sites: list[int] = [
            transaction.database.site_of(step.entity) for step in self._steps
        ]
        self._clients: dict[int, _SiteClient] = {}
        #: Sites this attempt sent anything to — the release fan-out.
        #: Tracked apart from ``_clients`` because failover drops and
        #: re-dials connections: a site must still get its ``release``
        #: even when its client happened to be torn down at abort time.
        self._touched_sites: set[int] = set()
        #: Root span of the distributed trace (``None`` untraced).
        self._root = None

    # ------------------------------------------------------------------
    async def run(self) -> TxnOutcome:
        """Attempt, abort-and-retry, commit; always closes connections.

        When tracing is on, the whole execution runs under a detached
        ``txn.run`` root span with a fresh ``trace_id``; every request
        this coordinator issues carries that trace context, so the
        merged cross-process trace shows one causal tree per
        transaction (:mod:`repro.obs.distributed`).
        """
        with distributed.txn_span(self.transaction.name) as root:
            self._root = root if root else None
            if root:
                root.set(txn=self.transaction.name)
            started = time.perf_counter()
            outcome = await self._run()
            outcome.seconds = time.perf_counter() - started
            if root:
                root.set(outcome=outcome.outcome, retries=outcome.retries)
            self._root = None
            return outcome

    async def _run(self) -> TxnOutcome:
        name = self.transaction.name
        sites = sorted(set(self._step_sites))
        try:
            for attempt in range(self.max_retries + 1):
                failure = await self._attempt()
                if failure is None:
                    unacked = await self._commit()
                    if unacked:
                        _outcomes_counter().labels(outcome="partial-commit").inc()
                        return TxnOutcome(
                            name,
                            "partial-commit",
                            retries=attempt,
                            sites=sites,
                            detail=f"commit un-acked at sites {unacked}",
                            unacked_commit_sites=unacked,
                        )
                    _outcomes_counter().labels(outcome="committed").inc()
                    return TxnOutcome(name, "committed", retries=attempt, sites=sites)
                await self._abort()
                if attempt < self.max_retries:
                    await self.transport.sleep(backoff_ticks(attempt, self.rng))
            _outcomes_counter().labels(outcome="retry-exhausted").inc()
            return TxnOutcome(
                name,
                "retry-exhausted",
                retries=self.max_retries,
                sites=sites,
                detail=failure,
            )
        except TransportError as exc:
            # Best-effort cleanup: locks this transaction still holds
            # at reachable sites would otherwise block every later
            # requester of those entities forever (nothing expires a
            # holder that will never unlock).
            try:
                await self._abort()
            except TransportError:
                pass
            _outcomes_counter().labels(outcome="error").inc()
            return TxnOutcome(name, "error", sites=sites, detail=str(exc))
        finally:
            await self._close()

    # ------------------------------------------------------------------
    async def _client(self, site: int) -> _SiteClient:
        if self.pool is not None:
            return await self.pool.client(site)
        # Without a resolver a site is its own address, dialled once.
        address = site
        if self.resolver is not None:
            address = self.resolver.cached(site)
            if address is None:
                address = await self.resolver.resolve(site)
        client = self._clients.get(site)
        if client is not None and client.address == address:
            return client
        if client is not None:
            await client.close()
        client = await _dial(self.transport, address)
        self._clients[site] = client
        return client

    async def _failover(self, site: int, leader_hint=None) -> None:
        """A request to *site* failed: forget the cached leader and
        this connection so the next try re-resolves and re-dials."""
        if self.resolver is not None:
            self.resolver.invalidate(site, hint=leader_hint)
        client = self._clients.pop(site, None)
        if client is not None:
            await client.close()

    async def _should_failover(self, site: int, status: str) -> bool:
        """Does *status* mean the leader moved or died — as opposed to
        an ordinary slow grant?  A ``not-leader`` redirect is
        definitive.  A wall-clock ``timeout`` is ambiguous: a blocked
        lock request at a healthy leader times out too (a deadlock
        waiting for probe resolution, say), and treating that as
        leader death would depose healthy leaders on every long wait —
        so distinguish by pinging the same address first."""
        if self.resolver is None:
            return False
        if status == "not-leader":
            return True
        if status != "timeout":
            return False
        client = self._clients.get(site)
        if client is None:
            return True
        try:
            reply = await client.request("ping", timeout=self.request_timeout)
        except TransportError:
            return True
        return reply.get("status") != "pong"

    async def _attempt(self) -> str | None:
        """One pass over the poset; ``None`` on success, else the
        failure status."""
        tx = self.transaction
        steps = self._steps
        preds = self._step_preds
        acked: set[int] = set()
        in_flight: dict[asyncio.Task, int] = {}
        failure: str | None = None
        try:
            while len(acked) < len(steps) and failure is None:
                flying = set(in_flight.values())
                if self.batch:
                    in_flight.update(await self._issue_waves(acked, flying))
                else:
                    for index in range(len(steps)):
                        if index in acked or index in flying:
                            continue
                        if all(j in acked for j in preds[index]):
                            in_flight[asyncio.ensure_future(self._issue(index))] = index
                if not in_flight:  # pragma: no cover - poset is acyclic
                    return "stuck"
                done, _ = await asyncio.wait(in_flight, return_when=asyncio.FIRST_COMPLETED)
                for task in sorted(done, key=lambda t: in_flight[t]):
                    index = in_flight.pop(task)
                    status = task.result()
                    if status in ("granted", "released", "applied"):
                        acked.add(index)
                        if self.on_ack is not None:
                            self.on_ack(tx.name, steps[index])
                    else:
                        failure = status
            return failure
        finally:
            for task in in_flight:
                task.cancel()
            for task in in_flight:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass

    @staticmethod
    def _kind_of(step) -> str:
        if step.is_lock:
            return "lock"
        if step.is_unlock:
            return "unlock"
        return "update"

    async def _issue_waves(self, acked: set[int], flying: set[int]) -> dict:
        """Ship every currently-eligible step, batched per site.

        Pipelining relaxation of the per-step invariant: a step may
        ship when every poset predecessor is acked **or co-batched
        earlier in the same frame to the same site** — the site
        processes batch steps strictly in order, so the predecessor
        still takes effect first.  Steps are scanned in program order,
        which respects the poset, so a predecessor is always placed
        before its successors.  Returns new ``task -> step index``
        entries mirroring the single-step issue path.
        """
        wave: dict[int, list[int]] = {}
        for index in range(len(self._steps)):
            if index in acked or index in flying:
                continue
            site = self._step_sites[index]
            group = wave.setdefault(site, [])
            # A predecessor is satisfied when acked, or when co-batched
            # earlier in this same site group (the site runs the batch
            # in order, so it still takes effect first).
            if all(j in acked or j in group for j in self._step_preds[index]):
                group.append(index)
        tasks: dict = {}
        for site in sorted(wave):
            group = wave[site]
            if group:
                tasks.update(await self._issue_batch(site, group))
        return tasks

    async def _issue_batch(self, site: int, group: list[int]) -> dict:
        """One site's wave as a single ``batch`` frame; a task per
        step runs :meth:`_issue` with the frame as its first try."""
        tx = self.transaction
        self._touched_sites.add(site)
        specs = []
        for index in group:
            step = self._steps[index]
            if self.on_send is not None:
                self.on_send(tx.name, step)
            spec = {"op": self._kind_of(step), "entity": step.entity}
            if spec["op"] == "update":
                # Connection-independent idempotency key (see _issue).
                spec["step"] = index
            specs.append(spec)
        try:
            client = await self._client(site)
            pairs = await client.request_batch(
                specs,
                timeout=self.request_timeout,
                txn=tx.name,
                age=self.age,
                **self._trace_fields(),
            )
        except TransportError as exc:
            # The frame never left (dead connection): every step's first
            # try failed the way a dead single-step request does, and
            # its failover loop takes it from there (or re-raises).
            carried = [exc] * len(group)
        else:
            carried = [(client, step_id, future) for step_id, future in pairs]
        return {
            asyncio.ensure_future(self._issue(index, first)): index
            for index, first in zip(group, carried)
        }

    async def _issue(self, index: int, carried: tuple | TransportError | None = None) -> str:
        """Drive step *index* to its final status under the one
        failover loop.

        *carried* is the try a ``batch`` frame already made for the
        step: the ``(client, step id, future)`` its final reply is
        routed to, or the :class:`TransportError` that kept the frame
        from leaving.  That is the step's first try; every other try is
        a single-step request.
        """
        step = self._steps[index]
        site = self._step_sites[index]
        if carried is None and self.on_send is not None:
            self.on_send(self.transaction.name, step)
        kind = self._kind_of(step)
        fields = {
            "txn": self.transaction.name,
            "entity": step.entity,
            "age": self.age,
        }
        if kind == "update":
            # Connection-independent idempotency key: a step replayed
            # against a new leader after failover must not double-apply.
            fields["step"] = index
        attempts = self.FAILOVER_ATTEMPTS if self.resolver is not None else 0
        status = "error"
        self._touched_sites.add(site)
        with distributed.child_span("txn.step", self._root) as span:
            if span:
                span.set(kind=kind, entity=step.entity, site=site)
                fields["trace"] = distributed.context_of(span)
            for attempt in range(attempts + 1):
                try:
                    if carried is None:
                        client = await self._client(site)
                        reply = await client.request(
                            kind, timeout=self.request_timeout, **fields
                        )
                    else:
                        first, carried = carried, None
                        if isinstance(first, TransportError):
                            raise first
                        client, step_id, future = first
                        reply = await client.routed_reply(step_id, future, self.request_timeout)
                except TransportError:
                    if self.resolver is None or attempt == attempts:
                        raise
                    await self._failover(site)
                    continue
                status = reply.get("status", "error")
                if attempt < attempts and await self._should_failover(site, status):
                    # The leader moved (redirect) or stopped answering
                    # (lease-holder death): re-resolve and replay.
                    # Replays are idempotent site-side — a re-sent lock
                    # for a held entity re-grants, a re-sent update
                    # dedupes on its step key, a queued lock retry
                    # supersedes the original.
                    await self._failover(site, leader_hint=reply.get("leader"))
                    continue
                break
            if span:
                span.set(status=status)
            return status

    def _trace_fields(self) -> dict:
        """The ``trace`` field for a request issued directly under the
        transaction's root span (empty dict untraced)."""
        context = distributed.context_of(self._root)
        return {"trace": context} if context is not None else {}

    async def _abort(self) -> None:
        # Releases are independent per site: fan them out concurrently
        # (each is its own failover-aware retry loop).
        sites = sorted(self._touched_sites | set(self._clients))
        await asyncio.gather(*(self._abort_site(site) for site in sites))

    async def _abort_site(self, site: int) -> None:
        for attempt in range(2):
            try:
                client = await self._client(site)
                reply = await client.request(
                    "release",
                    txn=self.transaction.name,
                    timeout=self.request_timeout,
                    **self._trace_fields(),
                )
            except TransportError:
                if self.resolver is None:
                    break
                await self._failover(site)
                continue
            if attempt == 0 and await self._should_failover(
                site, reply.get("status", "error")
            ):
                await self._failover(site, leader_hint=reply.get("leader"))
                continue
            break

    #: Attempts per site before a commit is declared un-acked.
    COMMIT_ATTEMPTS = 3

    async def _commit(self) -> list[int]:
        """Send ``commit`` everywhere and insist on an ack.

        Commit is idempotent site-side, so a lost request or reply
        (injected drop, dead connection) is retried — on a fresh
        connection if the old one raised.  Returns the sites that
        never acknowledged; the caller reports those as a
        ``partial-commit`` so the history audit can flag the run
        instead of silently auditing an incomplete history.
        """
        with distributed.child_span("txn.commit", self._root) as span:
            sites = sorted(self._touched_sites | set(self._clients))
            if span:
                span.set(sites=len(sites))
            # Commits are idempotent and independent per site: fan
            # them out concurrently instead of one round trip at a
            # time.
            acked = await asyncio.gather(*(self._commit_site(site) for site in sites))
            unacked = [site for site, ok in zip(sites, acked) if not ok]
            if span and unacked:
                span.set(unacked=len(unacked))
        return unacked

    async def _commit_site(self, site: int) -> bool:
        attempts = self.COMMIT_ATTEMPTS + (
            self.FAILOVER_ATTEMPTS if self.resolver is not None else 0
        )
        for _ in range(attempts):
            try:
                client = await self._client(site)
                reply = await client.request(
                    "commit",
                    txn=self.transaction.name,
                    timeout=self.request_timeout,
                    **self._trace_fields(),
                )
            except TransportError:
                await self._failover(site)
                continue
            status = reply.get("status")
            if status == "committed":
                return True
            if await self._should_failover(site, status or "error"):
                await self._failover(site, leader_hint=reply.get("leader"))
        return False

    async def _close(self) -> None:
        for client in self._clients.values():
            await client.close()
        self._clients.clear()
