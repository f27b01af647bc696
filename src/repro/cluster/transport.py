"""Pluggable cluster transports: deterministic memory and real TCP.

Both transports move *encoded protocol frames* (:func:`repro.cluster.
protocol.encode`), so the wire format is exercised even when no socket
exists, and both move them through one :class:`Connection` class: its
``send`` encodes a message, reports it and hands the frame's bytes on;
its ``recv`` takes the next frame from the connection's inbox — a
single-consumer mailbox — decodes it and reports it.  The transports
differ only in where a sent frame goes and who fills an inbox:

* :class:`MemoryTransport` hands the bytes straight to the peer's
  mailbox inside one event loop.  Message order is a pure function of
  task scheduling, which is deterministic for a fixed workload and
  seed, so cluster tests and the benchmark's determinism check run on
  it.
* :class:`TcpTransport` runs an :class:`asyncio.Protocol` per socket
  (localhost or a real network): it splits the byte stream into whole
  frames for the same mailbox, and a send is one ``transport.write``,
  waiting only while the socket's write buffer is over its high-water
  mark.  ``port 0`` listeners get ephemeral ports that are published
  back into the address map so an in-process cluster can wire itself
  up.

``Transport.sleep(ticks)`` is the one time source the runtime uses for
backoff and fault windows: memory ticks are bare event-loop yields
(``asyncio.sleep(0)``), TCP ticks are milliseconds.  Nothing else in
the deterministic path consults a wall clock.

Both transports report to the process-global wire observer
(:data:`repro.obs.distributed.WIRE`) while it is active — while an
event log, wire metrics or tracing is attached; a default run attaches
none, and its transports skip every hook.  A frame is
copied, stamped (``wire.send_ns``) and its encode timed only while the
observer is *stamping*, i.e. while wire metrics or tracing will read
the stamp; inbound frames that carry one get it completed and record
the transport-stage latency.  Otherwise a frame costs its codec and one
mailbox hop.  A frame sent to several peers (a deadlock probe) is
encoded once: :func:`encode_frame` builds it and
:meth:`Connection.send_frame` ships it on each connection.

A transport also decides how a site is asked: every connection it
builds, client or server end, sends with its :attr:`Transport.codec`,
and :meth:`Transport.ask` is the one one-shot request.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import deque

from ..errors import ReproError
from ..obs import distributed
from . import protocol

#: Wall-clock length of one :class:`TcpTransport` tick.
TICK_SECONDS = 0.001


class TransportError(ReproError):
    """A connection to a site could not be made or has gone away."""


def encode_frame(message: dict, codec: protocol.WireCodec) -> tuple[bytes, dict, int]:
    """*message* encoded with *codec* the way a sender ships it: the
    frame, the message it carries — a stamped copy while the wire
    observer reads stamps — and the nanoseconds the encode took (timed
    only then, else 0).  These are :meth:`Connection.send_frame`'s
    arguments."""
    wire = distributed.WIRE
    if not wire.stamping:
        return protocol.encode(message, codec), message, 0
    message = wire.stamp(message)
    before = time.perf_counter_ns()
    frame = protocol.encode(message, codec)
    return frame, message, time.perf_counter_ns() - before


class _Mailbox:
    """An unbounded FIFO of frames with exactly one consumer.

    The delivery order the cluster fingerprints pin rests on exactly
    this much event-loop behaviour: :meth:`put` never suspends, a put
    onto an empty mailbox wakes the parked reader through one
    ``call_soon`` hop (its future's done callback) and a further put
    before it runs wakes nobody, and a reader cancelled while parked
    un-parks itself.  ``None`` marks the end of the stream.
    """

    __slots__ = ("frames", "_reader")

    def __init__(self) -> None:
        self.frames: deque = deque()
        self._reader: asyncio.Future | None = None

    def put(self, frame) -> None:
        self.frames.append(frame)
        reader, self._reader = self._reader, None
        if reader is not None and not reader.done():
            reader.set_result(None)

    async def get(self):
        frames = self.frames
        while not frames:
            if self._reader is not None:
                raise TransportError("a connection has one reader")
            reader = self._reader = asyncio.get_running_loop().create_future()
            try:
                await reader
            finally:
                if self._reader is reader:
                    self._reader = None
        return frames.popleft()


class Connection:
    """One bidirectional frame pipe between a client and a site.

    ``peer`` labels the far (or serving) site for wire metrics;
    ``None`` when unknown.  ``codec`` is the payload encoding *this
    end sends with* (receiving auto-detects per frame): the codec of
    the transport that built the connection.

    A transport builds it from the connection's *inbox*, a *write*
    callable that hands one frame's bytes to the far end and a *hangup*
    callable that ends the stream there.
    """

    def __init__(self, inbox: _Mailbox, write, hangup, codec, peer: int | None = None) -> None:
        self._inbox = inbox
        self._write = write
        self._hangup = hangup
        #: Why this end can send no more (``None`` while it can).
        self._closed: str | None = None
        #: A cross-region delay paid before every send (``LatencyTransport``).
        self._delay = None
        #: Pending while TCP flow control holds writes back.
        self._writable: asyncio.Future | None = None
        self.peer = peer
        self.codec = codec

    async def send(self, message: dict) -> None:
        frame, message, encode_ns = encode_frame(message, self.codec)
        await self.send_frame(frame, message, encode_ns)

    async def send_frame(self, frame: bytes, message: dict, encode_ns: int = 0) -> None:
        """Ship *frame*, an encoding of *message* from
        :func:`encode_frame` — once per peer when one frame goes to
        several.  The observer is told about every send; *encode_ns* is
        charged to this one."""
        if self._delay is not None:
            await self._delay()
        if self._closed is not None:
            raise TransportError(self._closed)
        wire = distributed.WIRE
        if wire.active:
            wire.sent(message, len(frame), encode_ns, self.peer)
        self._write(frame)
        if self._writable is not None:
            await asyncio.shield(self._writable)
            if self._closed is not None:
                raise TransportError(self._closed)

    async def recv(self) -> dict | None:
        """Next message, or ``None`` once the peer closed."""
        inbox = self._inbox
        frame = inbox.frames.popleft() if inbox.frames else await inbox.get()
        if frame is None:
            return None
        # The prefix was written by ``protocol.encode`` (memory) or
        # already parsed by the frame splitter (TCP).
        message = protocol.decode_payload(frame[4:])
        wire = distributed.WIRE
        if wire.active:
            wire.received(message, len(frame), self.peer)
        return message

    async def close(self) -> None:
        if self._closed is None:
            self._closed = "send on a closed connection"
            self._hangup()


class Transport:
    """Factory for listeners and connections, plus the tick clock."""

    #: Whether message order is reproducible for a fixed seed.
    deterministic = False
    #: What every connection this transport builds sends with.
    codec: protocol.WireCodec = protocol.JSON_CODEC

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

    async def ask(
        self, address: int, kind: str, *, timeout: float | None, **fields
    ) -> dict | None:
        """One ``kind`` request to *address* on a fresh connection: the
        reply, or ``None`` when the connect fails, the peer hangs up,
        its reply does not decode or none comes within *timeout*
        seconds.  The connection is always closed."""
        request = protocol.request(kind, 1, **fields)
        try:
            connection = await self.connect(address)
        except TransportError:
            return None
        try:
            await connection.send(request)
            return await asyncio.wait_for(connection.recv(), timeout)
        except (asyncio.TimeoutError, TransportError, protocol.ProtocolError):
            return None
        finally:
            await connection.close()


# ----------------------------------------------------------------------
# In-memory transport
# ----------------------------------------------------------------------
class MemoryTransport(Transport):
    """Mailbox-paired connections inside one event loop (deterministic)."""

    deterministic = True

    def __init__(self, codec=protocol.JSON_CODEC) -> None:
        self.codec = codec
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
        client = Connection(
            to_client, to_server.put, functools.partial(to_server.put, None), self.codec, site
        )
        server = Connection(
            to_server, to_client.put, functools.partial(to_client.put, None), self.codec, site
        )
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

    @property
    def codec(self) -> protocol.WireCodec:
        return self._inner.codec

    def _delay(self, origin: str, destination: str):
        """What a connection awaits before each send (``None``: no
        delay between these regions)."""
        ticks = self.matrix.delay(origin, destination)
        return functools.partial(self._inner.sleep, ticks) if ticks else None

    async def listen(self, site: int, handler) -> None:
        delay = self._delay(self.matrix.region_of_site(site), self.matrix.client_region)

        def delayed_handler(connection: Connection):
            connection._delay = delay
            return handler(connection)

        await self._inner.listen(site, delayed_handler)

    async def connect(self, site: int) -> Connection:
        connection = await self._inner.connect(site)
        connection._delay = self._delay(self.matrix.client_region, self.matrix.region_of_site(site))
        return connection

    async def sleep(self, ticks: int) -> None:
        await self._inner.sleep(ticks)

    async def close(self) -> None:
        await self._inner.close()


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class _FrameProtocol(asyncio.Protocol):
    """The socket end of one TCP :class:`Connection`: whole frames of
    the byte stream go to the connection's inbox, the stream's end puts
    ``None`` there, and flow control holds the connection's sends."""

    def __init__(self, peer: int | None, on_connect=None, codec=protocol.JSON_CODEC) -> None:
        self._peer = peer
        self._on_connect = on_connect
        self._codec = codec
        self._inbox = _Mailbox()
        self._buffer = bytearray()
        self._transport: asyncio.Transport | None = None
        self.connection: Connection | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self.connection = Connection(
            self._inbox, transport.write, transport.close, self._codec, self._peer
        )
        if self._on_connect is not None:
            self._on_connect(self.connection)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        start = 0
        while size - start >= 4:
            length = int.from_bytes(buffer[start : start + 4], "big")
            if length > protocol.MAX_FRAME:
                # A corrupt prefix: nothing after it can be framed.
                buffer.clear()
                self._transport.close()
                return
            stop = start + 4 + length
            if stop > size:
                break
            self._inbox.put(bytes(buffer[start:stop]))
            start = stop
        del buffer[:start]

    def connection_lost(self, exc: Exception | None) -> None:
        connection = self.connection
        if connection._closed is None:
            connection._closed = f"peer went away: {exc or 'connection closed'}"
        writable, connection._writable = connection._writable, None
        if writable is not None and not writable.done():
            writable.set_result(None)
        self._buffer.clear()  # a frame cut short by the end is dropped
        self._inbox.put(None)

    def pause_writing(self) -> None:
        self.connection._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        writable, self.connection._writable = self.connection._writable, None
        if writable is not None and not writable.done():
            writable.set_result(None)


class TcpTransport(Transport):
    """Real sockets, one :class:`asyncio.Protocol` per connection.

    *addresses* maps ``site -> (host, port)``.  Sites absent from the
    map are assigned ``127.0.0.1`` with an ephemeral port at
    :meth:`listen` time, and the chosen port is published back into
    ``self.addresses`` — the in-process benchmark cluster relies on
    this.  *codec* is what every connection, dialled or accepted, sends
    with.  One tick of :meth:`sleep` is :data:`TICK_SECONDS`.
    :meth:`close` stops listening, closes every connection it accepted
    and waits for their handlers.
    """

    deterministic = False

    def __init__(
        self, addresses: dict[int, tuple[str, int]] | None = None, *, codec=protocol.JSON_CODEC
    ) -> None:
        self.addresses: dict[int, tuple[str, int]] = dict(addresses or {})
        self.codec = codec
        self._servers: list[asyncio.base_events.Server] = []
        #: Handler task -> the accepted connection it serves.
        self._accepted: dict[asyncio.Task, Connection] = {}

    async def listen(self, site: int, handler) -> None:
        host, port = self.addresses.get(site, ("127.0.0.1", 0))

        def serve(connection: Connection) -> None:
            task = asyncio.ensure_future(handler(connection))
            self._accepted[task] = connection
            task.add_done_callback(self._handler_done)

        server = await asyncio.get_running_loop().create_server(
            lambda: _FrameProtocol(site, serve, self.codec), host, port
        )
        bound = server.sockets[0].getsockname()
        self.addresses[site] = (bound[0], bound[1])
        self._servers.append(server)

    def _handler_done(self, task: asyncio.Task) -> None:
        connection = self._accepted.pop(task, None)
        if task.cancelled() or task.exception() is None:
            return
        task.get_loop().call_exception_handler(
            {
                "message": "Unhandled exception in a TCP connection handler",
                "exception": task.exception(),
                "task": task,
            }
        )
        if connection is not None:
            connection._hangup()

    async def connect(self, site: int) -> Connection:
        address = self.addresses.get(site)
        if address is None:
            raise TransportError(f"no address for site {site} (known: {sorted(self.addresses)})")
        try:
            _, frames = await asyncio.get_running_loop().create_connection(
                lambda: _FrameProtocol(site, codec=self.codec), *address
            )
        except (ConnectionError, OSError) as exc:
            raise TransportError(f"cannot reach site {site} at {address}: {exc}") from None
        return frames.connection

    async def sleep(self, ticks: int) -> None:
        await asyncio.sleep(max(1, ticks) * TICK_SECONDS)

    async def close(self) -> None:
        servers, self._servers = self._servers, []
        for server in servers:
            server.close()
        accepted, self._accepted = self._accepted, {}
        for task, connection in accepted.items():
            await connection.close()
            task.cancel()
        for task in accepted:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for server in servers:
            await server.wait_closed()
