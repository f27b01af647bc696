"""Memory and TCP transports carry identical frames.

The mailbox cases below check what a memory connection promises its two
ends (FIFO, no lost wake-up, cancellation, close).  They do not prove
that the mailbox schedules like the queue it stands in for: that oracle
is the pinned history/outcome fingerprints and message counts of
``tests/cluster/test_runtime.py`` and ``tests/replica/test_runtime.py``,
the reply transcript of ``tests/cluster/test_transcript.py`` and
``benchmarks/suite/expected.json`` — one task step more or less per
frame moves every one of them.
"""

import asyncio
import gc
import socket
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import protocol, run_cluster_sync
from repro.cluster.siteserver import SiteServer
from repro.cluster.transport import (
    MemoryTransport,
    TcpTransport,
    TransportError,
    _FrameProtocol,
)
from repro.obs import distributed
from repro.obs.events import EventLog

from .conftest import deadlock_prone_pair


async def _echo_handler(connection):
    while True:
        message = await connection.recv()
        if message is None:
            break
        message["echoed"] = True
        await connection.send(message)


class TestMemoryTransport:
    def test_roundtrip(self):
        async def scenario():
            transport = MemoryTransport()
            await transport.listen(1, _echo_handler)
            connection = await transport.connect(1)
            await connection.send({"type": "ping", "id": 1})
            reply = await connection.recv()
            await transport.close()
            return reply

        reply = asyncio.run(scenario())
        assert reply == {"type": "ping", "id": 1, "echoed": True}

    def test_connect_unknown_site_fails(self):
        async def scenario():
            transport = MemoryTransport()
            with pytest.raises(TransportError):
                await transport.connect(9)

        asyncio.run(scenario())

    def test_duplicate_listen_fails(self):
        async def scenario():
            transport = MemoryTransport()
            await transport.listen(1, _echo_handler)
            with pytest.raises(TransportError):
                await transport.listen(1, _echo_handler)

        asyncio.run(scenario())

    def test_close_makes_recv_return_none(self):
        async def scenario():
            transport = MemoryTransport()
            received = []

            async def handler(connection):
                received.append(await connection.recv())

            await transport.listen(1, handler)
            connection = await transport.connect(1)
            await connection.close()
            await transport.sleep(3)
            await transport.close()
            return received

        assert asyncio.run(scenario()) == [None]

    def test_close_refuses_connections_made_while_it_waits(self):
        # A server task that dials out while it is being torn down must
        # be refused: the connection would start a server task that
        # close() already is past cancelling, and close() would wait for
        # it forever.
        async def scenario():
            transport = MemoryTransport()
            refused = []

            async def handler(connection):
                try:
                    await connection.recv()
                finally:
                    try:
                        await transport.connect(1)
                    except TransportError:
                        refused.append(True)

            await transport.listen(1, handler)
            await transport.connect(1)
            await transport.sleep(1)
            await asyncio.wait_for(transport.close(), 1)
            return refused

        assert asyncio.run(scenario()) == [True]

    def test_send_on_a_closed_connection_fails(self):
        async def scenario():
            transport = MemoryTransport()
            await transport.listen(1, _echo_handler)
            connection = await transport.connect(1)
            await connection.close()
            with pytest.raises(TransportError):
                await connection.send({"type": "ping", "id": 1})
            await transport.close()

        asyncio.run(scenario())

    def test_is_deterministic_flagged(self):
        assert MemoryTransport.deterministic is True
        assert TcpTransport.deterministic is False


async def _connected_pair(transport):
    """Both ends of one memory connection (client, server)."""
    ends = asyncio.get_running_loop().create_future()

    async def handler(connection):
        ends.set_result(connection)
        await asyncio.Event().wait()  # keep the server task parked

    await transport.listen(1, handler)
    client = await transport.connect(1)
    return client, await ends


def _mailbox_scenario(body):
    async def scenario():
        transport = MemoryTransport()
        client, server = await _connected_pair(transport)
        try:
            return await body(client, server)
        finally:
            await transport.close()

    return asyncio.run(scenario())


class TestMemoryMailbox:
    def test_fifo_over_interleaved_put_and_get(self):
        async def body(client, server):
            seen = []
            for first in range(0, 9, 3):
                for offset in range(3):
                    await client.send({"type": "ping", "id": first + offset})
                seen.append((await server.recv())["id"])
                seen.append((await server.recv())["id"])
            while len(seen) < 9:
                seen.append((await server.recv())["id"])
            return seen

        assert _mailbox_scenario(body) == list(range(9))

    def test_send_never_suspends(self):
        async def body(client, server):
            order = []

            async def bystander():
                order.append("bystander")

            task = asyncio.ensure_future(bystander())
            await client.send({"type": "ping", "id": 1})
            order.append("sent")
            await task
            return order

        assert _mailbox_scenario(body) == ["sent", "bystander"]

    def test_put_wakes_the_parked_reader_and_a_second_put_is_kept(self):
        async def body(client, server):
            reader = asyncio.ensure_future(server.recv())
            await asyncio.sleep(0)  # the reader parks on the empty mailbox
            assert not reader.done()
            await client.send({"type": "ping", "id": 1})
            await client.send({"type": "ping", "id": 2})  # before the reader runs
            assert not reader.done()
            first = await reader
            second = await asyncio.wait_for(server.recv(), 1)
            return first["id"], second["id"]

        assert _mailbox_scenario(body) == (1, 2)

    def test_cancelled_reader_leaves_the_mailbox_usable(self):
        async def body(client, server):
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(server.recv(), 0.01)
            await client.send({"type": "ping", "id": 7})
            return (await asyncio.wait_for(server.recv(), 1))["id"]

        assert _mailbox_scenario(body) == 7

    def test_a_second_concurrent_reader_is_refused(self):
        async def body(client, server):
            reader = asyncio.ensure_future(server.recv())
            await asyncio.sleep(0)
            with pytest.raises(TransportError):
                await server.recv()
            await client.send({"type": "ping", "id": 1})
            return (await reader)["id"]

        assert _mailbox_scenario(body) == 1

    def test_close_reaches_the_peer_after_the_frames_before_it(self):
        async def body(client, server):
            await client.send({"type": "ping", "id": 1})
            await client.close()
            return (await server.recv())["id"], await server.recv()

        assert _mailbox_scenario(body) == (1, None)


async def _answer(connection):
    message = await connection.recv()
    await connection.send(protocol.reply(message["id"], "pong"))


async def _hang_up(connection):
    await connection.recv()
    await connection.close()


async def _stay_silent(connection):
    await connection.recv()


async def _answer_garbage(connection):
    await connection.recv()
    connection._write(b"\x00\x00\x00\x01?")  # a frame whose payload does not decode


def _unused_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.parametrize("make", [MemoryTransport, TcpTransport], ids=["memory", "tcp"])
class TestAsk:
    """``Transport.ask``: one request on a fresh connection, the reply
    or ``None``, and the asker's end closed either way."""

    @staticmethod
    def _ask(make, handler, timeout=5.0):
        async def scenario():
            transport = make()
            closed = asyncio.Event()

            async def serve(connection):
                await handler(connection)
                while await connection.recv() is not None:
                    pass
                closed.set()

            await transport.listen(1, serve)
            try:
                reply = await transport.ask(1, "ping", timeout=timeout)
                await asyncio.wait_for(closed.wait(), 5.0)
            finally:
                await transport.close()
            return reply

        return asyncio.run(scenario())

    def test_a_reply_comes_back(self, make):
        reply = self._ask(make, _answer)
        assert reply["status"] == "pong"
        assert reply["id"] == 1

    def test_a_hang_up_is_none(self, make):
        assert self._ask(make, _hang_up) is None

    def test_an_undecodable_reply_is_none(self, make):
        assert self._ask(make, _answer_garbage) is None

    def test_silence_past_the_timeout_is_none(self, make):
        assert self._ask(make, _stay_silent, timeout=0.05) is None

    def test_nothing_listening_is_none(self, make):
        async def scenario():
            if make is TcpTransport:
                transport = TcpTransport({1: ("127.0.0.1", _unused_port())})
            else:
                transport = make()
            try:
                return await transport.ask(1, "ping", timeout=5.0)
            finally:
                await transport.close()

        assert asyncio.run(scenario()) is None


class TestTcpTransport:
    def test_roundtrip_over_real_socket(self):
        async def scenario():
            transport = TcpTransport()
            await transport.listen(1, _echo_handler)
            host, port = transport.addresses[1]
            assert host == "127.0.0.1" and port > 0
            connection = await transport.connect(1)
            await connection.send({"type": "ping", "id": 42})
            reply = await connection.recv()
            await connection.close()
            await transport.close()
            return reply

        reply = asyncio.run(scenario())
        assert reply == {"type": "ping", "id": 42, "echoed": True}

    def test_connect_without_address_fails(self):
        async def scenario():
            transport = TcpTransport()
            with pytest.raises(TransportError):
                await transport.connect(5)

        asyncio.run(scenario())

    def test_a_full_run_leaves_no_open_transport(self):
        # Sites hang up when their peer does, and close() shuts every
        # connection it accepted: nothing is left for the collector to
        # find open.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = run_cluster_sync(
                deadlock_prone_pair(),
                transport="tcp",
                rounds=2,
                seed=3,
                max_retries=8,
                request_timeout=30.0,
            )
            gc.collect()
        assert report.committed == report.transactions
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    @pytest.mark.parametrize(
        "payload", [b"not json", b"[" * 100_000], ids=["not-json", "deeply-nested"]
    )
    def test_a_malformed_frame_ends_only_its_own_connection(self, payload):
        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _, context: errors.append(context))
            transport = TcpTransport()
            server = SiteServer(1, transport=transport)
            await server.start()
            reader, writer = await asyncio.open_connection(*transport.addresses[1])
            writer.write(len(payload).to_bytes(4, "big") + payload)
            rest = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            await writer.wait_closed()
            fresh = await transport.connect(1)
            await fresh.send(protocol.request("ping", 1))
            reply = await asyncio.wait_for(fresh.recv(), 5)
            await fresh.close()
            await server.stop()
            await transport.close()
            return rest, reply, errors

        rest, reply, errors = asyncio.run(scenario())
        assert rest == b""  # the site hung up without answering
        assert reply["status"] == "pong"
        assert errors == []


class _Socket:
    """Stands in for the socket under one TCP connection's frame
    protocol: closing it reports the connection lost on the next loop
    turn, as asyncio's transports do."""

    def __init__(self, frames):
        self.frames = frames
        self.closed = False

    def write(self, data):
        pass

    def close(self):
        if not self.closed:
            self.closed = True
            asyncio.get_running_loop().call_soon(self.frames.connection_lost, None)


def _splitter():
    frames = _FrameProtocol(1)
    socket = _Socket(frames)
    frames.connection_made(socket)
    return frames, socket


async def _drain(connection):
    """Every message until the end of the stream, and the frame sizes
    the wire observer was told."""
    event_log = EventLog()
    distributed.WIRE.attach(event_log)
    try:
        messages = []
        while (message := await connection.recv()) is not None:
            messages.append(message)
    finally:
        distributed.WIRE.detach()
    return messages, [int(event.detail.split()[1].rstrip("B")) for event in event_log]


_codecs = st.sampled_from([protocol.JSON_CODEC, protocol.BINARY_CODEC])
_frame_messages = st.fixed_dictionaries(
    {
        "type": st.sampled_from(["ping", "lock", "reply"]),
        "id": st.integers(min_value=0, max_value=2**40),
        "txn": st.text(max_size=40),
    }
)


class TestFrameSplitter:
    """A TCP byte stream becomes the frames that were written into it,
    however the reads happen to cut it."""

    def _received(self, *chunks, eof=True):
        async def scenario():
            frames, _ = _splitter()
            for chunk in chunks:
                frames.data_received(chunk)
            if eof:
                frames.connection_lost(None)
            return await _drain(frames.connection)

        return asyncio.run(scenario())

    def test_counts_frame_bytes(self):
        frame = protocol.encode({"type": "ping", "id": 1})
        messages, sizes = self._received(frame)
        assert messages == [{"type": "ping", "id": 1}]
        assert sizes == [len(frame)]

    def test_eof_yields_none(self):
        assert self._received() == ([], [])

    def test_recv_returns_bare_messages(self):
        messages, _ = self._received(protocol.encode({"type": "ping", "id": 2}))
        assert messages == [{"type": "ping", "id": 2}]

    @settings(max_examples=150, deadline=None)
    @given(
        sent=st.lists(st.tuples(_frame_messages, _codecs), min_size=1, max_size=8),
        cuts=st.lists(st.integers(min_value=0, max_value=4_000), max_size=12),
    )
    def test_any_chunking_yields_the_same_frames(self, sent, cuts):
        frames = [protocol.encode(message, codec) for message, codec in sent]
        stream = b"".join(frames)
        bounds = sorted({min(cut, len(stream)) for cut in cuts} | {0, len(stream)})
        chunks = [stream[start:stop] for start, stop in zip(bounds, bounds[1:])]
        messages, sizes = self._received(*chunks)
        assert messages == [message for message, _ in sent]
        assert sizes == [len(frame) for frame in frames]

    def test_eof_mid_frame_drops_the_partial_frame(self):
        whole = protocol.encode({"type": "ping", "id": 1})
        cut = protocol.encode({"type": "ping", "id": 2})[:-3]
        messages, _ = self._received(whole, cut)
        assert messages == [{"type": "ping", "id": 1}]

    def test_oversized_prefix_closes_the_connection(self):
        async def scenario():
            frames, socket = _splitter()
            frames.data_received((protocol.MAX_FRAME + 1).to_bytes(4, "big") + b"{}")
            assert socket.closed
            end = await asyncio.wait_for(frames.connection.recv(), 1)
            with pytest.raises(TransportError):
                await frames.connection.send({"type": "ping", "id": 1})
            return end

        assert asyncio.run(scenario()) is None
