"""Pluggable cluster transports: deterministic memory and real TCP.

Both transports move *encoded protocol frames* (:func:`repro.cluster.
protocol.encode`), so the wire format is exercised even when no socket
exists.  The memory transport pairs single-consumer mailboxes inside one
event loop — message order is a pure function of task scheduling, which is
deterministic for a fixed workload and seed, so cluster tests and the
benchmark's determinism check run on it.  The TCP transport is plain
``asyncio`` streams over localhost or a real network; ``port 0``
listeners get ephemeral ports that are published back into the address
map so an in-process cluster can wire itself up.

``Transport.sleep(ticks)`` is the one time source the runtime uses for
backoff and fault windows: memory ticks are bare event-loop yields
(``asyncio.sleep(0)``), TCP ticks are milliseconds.  Nothing else in
the deterministic path consults a wall clock.

Both transports report to the process-global wire observer
(:data:`repro.obs.distributed.WIRE`) while it is active — which, with
the flight recorder on by default, is every run: each frame end is told
to the observer's sinks (one ring append by default).  A frame is
copied, stamped (``wire.send_ns``) and its encode timed only while the
observer is *stamping*, i.e. while wire metrics or tracing will read
the stamp; inbound frames that carry one get it completed and record
the transport-stage latency.  Otherwise a frame costs its codec and one
mailbox hop.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from ..errors import ReproError
from ..obs import distributed
from . import protocol


class TransportError(ReproError):
    """A connection to a site could not be made or has gone away."""


def _encode_observed(message: dict, peer: int | None, codec: protocol.WireCodec) -> bytes:
    """Encode one frame with *codec* and tell the wire observer about
    it; the frame is stamped and its encode timed only when something
    reads the stamp."""
    wire = distributed.WIRE
    if not wire.active:
        return protocol.encode(message, codec)
    if not wire.stamping:
        frame = protocol.encode(message, codec)
        wire.sent(message, len(frame), 0, peer)
        return frame
    message = wire.stamp(message)
    before = time.perf_counter_ns()
    frame = protocol.encode(message, codec)
    wire.sent(message, len(frame), time.perf_counter_ns() - before, peer)
    return frame


class Connection:
    """One bidirectional frame pipe between a client and a site.

    ``peer`` labels the far (or serving) site for wire metrics;
    ``None`` when unknown.  ``codec`` is the payload encoding *this
    end sends with* (receiving auto-detects per frame); it starts as
    JSON and is repointed by ``hello`` negotiation
    (:func:`repro.cluster.protocol.negotiate` client-side, the site's
    ``_on_hello`` server-side).
    """

    peer: int | None = None
    codec: protocol.WireCodec = protocol.JSON_CODEC

    async def send(self, message: dict) -> None:
        raise NotImplementedError

    async def recv(self) -> dict | None:
        """Next message, or ``None`` once the peer closed."""
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError


class Transport:
    """Factory for listeners and connections, plus the tick clock."""

    #: Whether message order is reproducible for a fixed seed.
    deterministic = False

    async def listen(self, site: int, handler) -> None:
        """Start serving *site*; *handler* is ``async f(connection)``
        invoked once per inbound connection."""
        raise NotImplementedError

    async def connect(self, site: int) -> Connection:
        raise NotImplementedError

    async def sleep(self, ticks: int) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# In-memory transport
# ----------------------------------------------------------------------
class _Mailbox:
    """An unbounded FIFO of frames with exactly one consumer.

    The delivery order the cluster fingerprints pin rests on exactly
    this much event-loop behaviour: :meth:`put` never suspends, a put
    onto an empty mailbox wakes the parked reader through one
    ``call_soon`` hop (its future's done callback) and a further put
    before it runs wakes nobody, and a reader cancelled while parked
    un-parks itself.
    """

    __slots__ = ("_frames", "_reader")

    def __init__(self) -> None:
        self._frames: deque = deque()
        self._reader: asyncio.Future | None = None

    def put(self, frame) -> None:
        self._frames.append(frame)
        reader, self._reader = self._reader, None
        if reader is not None and not reader.done():
            reader.set_result(None)

    async def get(self):
        frames = self._frames
        while not frames:
            if self._reader is not None:
                raise TransportError("a memory connection has one reader")
            reader = self._reader = asyncio.get_running_loop().create_future()
            try:
                await reader
            finally:
                if self._reader is reader:
                    self._reader = None
        return frames.popleft()


class _MemoryConnection(Connection):
    def __init__(
        self,
        outbox: _Mailbox,
        inbox: _Mailbox,
        peer: int | None = None,
    ) -> None:
        self._outbox = outbox
        self._inbox = inbox
        self._closed = False
        self.peer = peer
        self.codec = protocol.JSON_CODEC

    async def send(self, message: dict) -> None:
        if self._closed:
            raise TransportError("send on a closed memory connection")
        self._outbox.put(_encode_observed(message, self.peer, self.codec))

    async def recv(self) -> dict | None:
        frame = await self._inbox.get()
        if frame is None:
            return None
        message = protocol.decode(frame)
        if distributed.WIRE.active:
            distributed.WIRE.received(message, len(frame), self.peer)
        return message

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


class MemoryTransport(Transport):
    """Mailbox-paired connections inside one event loop (deterministic)."""

    deterministic = True

    def __init__(self) -> None:
        self._handlers: dict[int, object] = {}
        self._server_tasks: list[asyncio.Task] = []

    async def listen(self, site: int, handler) -> None:
        if site in self._handlers:
            raise TransportError(f"site {site} is already listening")
        self._handlers[site] = handler

    async def connect(self, site: int) -> Connection:
        handler = self._handlers.get(site)
        if handler is None:
            raise TransportError(f"no site {site} is listening")
        to_server, to_client = _Mailbox(), _Mailbox()
        client = _MemoryConnection(to_server, to_client, peer=site)
        server = _MemoryConnection(to_client, to_server, peer=site)
        task = asyncio.ensure_future(handler(server))
        self._server_tasks.append(task)
        return client

    async def sleep(self, ticks: int) -> None:
        for _ in range(max(1, ticks)):
            await asyncio.sleep(0)

    async def close(self) -> None:
        # Stop listening first: a connection made while the tasks below
        # are awaited would add a server task nobody cancels.
        self._handlers.clear()
        for task in self._server_tasks:
            task.cancel()
        for task in self._server_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._server_tasks.clear()


# ----------------------------------------------------------------------
# Multi-region latency injection
# ----------------------------------------------------------------------
class LatencyMatrix:
    """A region map plus per-ordered-pair frame delays.

    *regions* maps ``site -> region name``; *delay_ticks* maps
    ``origin region -> destination region -> ticks`` added to every
    frame crossing that pair; coordinators, the client pool and the
    history fetch are homed in *client_region*.  Delays are transport
    ticks (event-loop yields on the memory transport, milliseconds on
    TCP), so a latency-shaped run on the memory transport stays fully
    deterministic.  Traffic specs build these via
    :meth:`repro.workloads.traffic.LatencyModel.matrix`.
    """

    def __init__(
        self,
        regions: dict[int, str],
        delay_ticks: dict[str, dict[str, int]],
        client_region: str = "local",
    ) -> None:
        self.regions = dict(regions)
        self.delay_ticks = {
            origin: dict(row) for origin, row in delay_ticks.items()
        }
        self.client_region = client_region

    def region_of_site(self, site: int) -> str:
        """The region serving *site* (defaults to the client region)."""
        return self.regions.get(site, self.client_region)

    def delay(self, origin: str, destination: str) -> int:
        """Ticks a frame pays travelling *origin* → *destination*."""
        return self.delay_ticks.get(origin, {}).get(destination, 0)


class _DelayedConnection(Connection):
    """A connection whose sends pay a fixed cross-region delay.

    Wraps the inner connection rather than subclassing a concrete one,
    so it works over memory and TCP alike; ``codec`` must forward with
    a setter because ``hello`` negotiation repoints it on the object it
    is handed.
    """

    def __init__(self, inner: Connection, sleep, ticks: int) -> None:
        self._inner = inner
        self._sleep = sleep
        self._ticks = ticks

    @property
    def peer(self) -> int | None:
        return self._inner.peer

    @peer.setter
    def peer(self, value: int | None) -> None:
        self._inner.peer = value

    @property
    def codec(self) -> protocol.WireCodec:
        return self._inner.codec

    @codec.setter
    def codec(self, value: protocol.WireCodec) -> None:
        self._inner.codec = value

    async def send(self, message: dict) -> None:
        if self._ticks:
            await self._sleep(self._ticks)
        await self._inner.send(message)

    async def recv(self) -> dict | None:
        return await self._inner.recv()

    async def close(self) -> None:
        await self._inner.close()


class LatencyTransport(Transport):
    """Injects a :class:`LatencyMatrix` into any transport.

    Client connections (``connect``) delay each outbound frame by the
    client-region → site-region entry; server connections (handed to
    ``listen`` handlers) delay replies by the reverse entry — so one
    request/response round trip pays both directions, and intra-region
    traffic pays nothing.  Determinism is inherited from the inner
    transport: delays are plain tick sleeps on its clock.
    """

    def __init__(self, inner: Transport, matrix: LatencyMatrix) -> None:
        self._inner = inner
        self.matrix = matrix

    @property
    def deterministic(self) -> bool:
        return self._inner.deterministic

    async def listen(self, site: int, handler) -> None:
        ticks = self.matrix.delay(
            self.matrix.region_of_site(site), self.matrix.client_region
        )

        async def delayed_handler(connection: Connection) -> None:
            await handler(
                _DelayedConnection(connection, self._inner.sleep, ticks)
            )

        await self._inner.listen(site, delayed_handler)

    async def connect(self, site: int) -> Connection:
        ticks = self.matrix.delay(
            self.matrix.client_region, self.matrix.region_of_site(site)
        )
        inner = await self._inner.connect(site)
        return _DelayedConnection(inner, self._inner.sleep, ticks)

    async def sleep(self, ticks: int) -> None:
        await self._inner.sleep(ticks)

    async def close(self) -> None:
        await self._inner.close()


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class _TcpConnection(Connection):
    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: int | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.peer = peer
        self.codec = protocol.JSON_CODEC
        # One persistent connection may be shared by several
        # coordinators; the lock keeps concurrent write+drain pairs
        # from interleaving frame bytes.
        self._send_lock = asyncio.Lock()

    async def send(self, message: dict) -> None:
        frame = _encode_observed(message, self.peer, self.codec)
        try:
            async with self._send_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except ConnectionError as exc:
            raise TransportError(f"peer went away: {exc}") from None

    async def recv(self) -> dict | None:
        message, nbytes = await protocol.read_frame(self._reader)
        if message is not None and distributed.WIRE.active:
            distributed.WIRE.received(message, nbytes, self.peer)
        return message

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TcpTransport(Transport):
    """Real sockets via asyncio streams.

    *addresses* maps ``site -> (host, port)``.  Sites absent from the
    map are assigned ``127.0.0.1`` with an ephemeral port at
    :meth:`listen` time, and the chosen port is published back into
    ``self.addresses`` — the in-process benchmark cluster relies on
    this.  One tick of :meth:`sleep` is ``tick_seconds`` (default 1ms).
    """

    deterministic = False

    def __init__(
        self,
        addresses: dict[int, tuple[str, int]] | None = None,
        *,
        tick_seconds: float = 0.001,
    ) -> None:
        self.addresses: dict[int, tuple[str, int]] = dict(addresses or {})
        self.tick_seconds = tick_seconds
        self._servers: list[asyncio.base_events.Server] = []

    async def listen(self, site: int, handler) -> None:
        host, port = self.addresses.get(site, ("127.0.0.1", 0))

        async def on_connect(reader, writer):
            await handler(_TcpConnection(reader, writer, peer=site))

        server = await asyncio.start_server(on_connect, host, port)
        bound = server.sockets[0].getsockname()
        self.addresses[site] = (bound[0], bound[1])
        self._servers.append(server)

    async def connect(self, site: int) -> Connection:
        address = self.addresses.get(site)
        if address is None:
            raise TransportError(f"no address for site {site} (known: {sorted(self.addresses)})")
        try:
            reader, writer = await asyncio.open_connection(*address)
        except (ConnectionError, OSError) as exc:
            raise TransportError(f"cannot reach site {site} at {address}: {exc}") from None
        return _TcpConnection(reader, writer, peer=site)

    async def sleep(self, ticks: int) -> None:
        await asyncio.sleep(max(1, ticks) * self.tick_seconds)

    async def close(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
