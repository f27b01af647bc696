"""The introspection plane: ``status`` requests, probe stitching, and
external deadlock detection."""

import asyncio

from repro.cluster import protocol
from repro.cluster.siteserver import SiteServer
from repro.cluster.transport import MemoryTransport
from repro.obs.insight import deadlock_cycles, probe_site, probe_sites


def run(coro):
    return asyncio.run(coro)


async def _rpc(connection, kind, request_id, **fields):
    await connection.send(protocol.request(kind, request_id, **fields))
    return await connection.recv()


class TestStatusRequest:
    def test_idle_site_snapshot(self):
        async def scenario():
            transport = MemoryTransport()
            server = SiteServer(1, transport=transport)
            await server.start()
            connection = await transport.connect(1)
            reply = await _rpc(connection, "status", 1)
            await transport.close()
            return reply

        reply = run(scenario())
        assert reply["status"] == "status"
        assert reply["site"] == 1
        assert reply["role"] == "site"
        assert reply["lock_table"] == []
        assert reply["pending"] == []
        assert reply["wait_for"] == []

    def test_snapshot_shows_holder_waiter_and_edge(self):
        async def scenario():
            transport = MemoryTransport()
            server = SiteServer(1, transport=transport, grant_timeout=500)
            await server.start()
            a = await transport.connect(1)
            b = await transport.connect(1)
            probe = await transport.connect(1)
            await _rpc(a, "lock", 1, txn="T1", entity="x", age=0)
            await b.send(protocol.request("lock", 1, txn="T2", entity="x", age=1))
            await transport.sleep(5)
            reply = await _rpc(probe, "status", 1)
            await transport.close()
            return reply

        reply = run(scenario())
        (row,) = reply["lock_table"]
        assert row == {"entity": "x", "holder": "T1", "waiters": ["T2"]}
        (pending,) = reply["pending"]
        assert pending["txn"] == "T2"
        assert pending["entity"] == "x"
        assert pending["timer"] is True
        assert reply["wait_for"] == [["T2", "T1"]]
        assert reply["contention"][0]["entity"] == "x"

    def test_status_answers_while_another_connection_hammers(self):
        # The status plane must not queue behind workload traffic: every
        # probe completes while a second connection locks and unlocks
        # on the same site in a tight loop.
        async def scenario():
            transport = MemoryTransport()
            server = SiteServer(1, transport=transport)
            await server.start()
            load = await transport.connect(1)
            probe = await transport.connect(1)
            rounds = 0

            async def hammer():
                nonlocal rounds
                while True:
                    await _rpc(load, "lock", 2 * rounds + 1, txn="L", entity="x", age=0)
                    await _rpc(load, "unlock", 2 * rounds + 2, txn="L", entity="x")
                    rounds += 1

            hammering = asyncio.ensure_future(hammer())
            replies = [await _rpc(probe, "status", n) for n in range(1, 21)]
            hammering.cancel()
            await asyncio.gather(hammering, return_exceptions=True)
            await transport.close()
            return replies, rounds

        replies, rounds = run(scenario())
        assert [reply["status"] for reply in replies] == ["status"] * 20
        assert rounds > 0, "the load connection never got a turn"

    def test_status_stays_off_the_event_timeline(self):
        # QUIET_KINDS: monitoring probes are plumbing, not workload —
        # they must not pollute the replayable event timeline.
        from repro.obs.events import EventLog

        async def scenario():
            transport = MemoryTransport()
            event_log = EventLog()
            server = SiteServer(1, transport=transport, event_log=event_log)
            await server.start()
            probe = await transport.connect(1)
            await _rpc(probe, "status", 1)
            await transport.close()
            return event_log

        event_log = run(scenario())
        assert event_log.of_kind("msg") == []


class TestProbeStitching:
    def test_probe_unreachable_site_reports_error(self):
        async def scenario():
            transport = MemoryTransport()
            try:
                return await probe_site(transport, 7, timeout=0.2)
            finally:
                await transport.close()

        status = run(scenario())
        assert status["site"] == 7
        assert status["error"]

    def test_cross_site_deadlock_detected_externally(self, two_site_db):
        # peers=() switches the edge-chasing probes off: the sites
        # cannot resolve the deadlock themselves, and the *external*
        # status plane must see it.
        async def scenario():
            transport = MemoryTransport()
            servers = [
                SiteServer(site, transport=transport, peers=())
                for site in (1, 2)
            ]
            for server in servers:
                await server.start()
            a = await transport.connect(1)
            a2 = await transport.connect(2)
            b = await transport.connect(2)
            b2 = await transport.connect(1)
            # T1 holds x@1, T2 holds y@2, then each requests the other.
            await _rpc(a, "lock", 1, txn="T1", entity="x", age=0)
            await _rpc(b, "lock", 1, txn="T2", entity="y", age=1)
            await a2.send(protocol.request("lock", 2, txn="T1", entity="y", age=0))
            await b2.send(protocol.request("lock", 2, txn="T2", entity="x", age=1))
            await transport.sleep(10)
            status = await probe_sites(transport, [1, 2])
            await transport.close()
            return status

        status = run(scenario())
        assert not status.errors
        cycles = status.cycles
        assert cycles, "stitched wait-for graph must expose the cycle"
        assert set(cycles[0]) >= {"T1", "T2"}
        assert deadlock_cycles(status.graph) == cycles
        text = status.render()
        assert "DEADLOCK" in text
        assert "T1" in text and "T2" in text

    def test_no_cycle_when_single_blocker(self, two_site_db):
        async def scenario():
            transport = MemoryTransport()
            server = SiteServer(1, transport=transport, peers=())
            await server.start()
            a = await transport.connect(1)
            b = await transport.connect(1)
            await _rpc(a, "lock", 1, txn="T1", entity="x", age=0)
            await b.send(protocol.request("lock", 1, txn="T2", entity="x", age=1))
            await transport.sleep(5)
            status = await probe_sites(transport, [1])
            await transport.close()
            return status

        status = run(scenario())
        assert status.cycles == []
        assert "deadlock-free" in status.render()


class TestReplicaStatus:
    def test_leader_and_follower_both_answer(self):
        from repro.cluster import LogicalClock
        from repro.replica import ReplicaGroup, ReplicaServer

        async def scenario():
            transport = MemoryTransport()
            clock = LogicalClock()
            group = ReplicaGroup(1, 2, lease_ticks=64)
            servers = [
                ReplicaServer(
                    group,
                    index,
                    transport=transport,
                    clock=clock,
                    peers=group.addresses,
                )
                for index in range(2)
            ]
            for server in servers:
                await server.start()
            leader = await transport.connect(group.addresses[0])
            await _rpc(leader, "lock", 1, txn="T1", entity="x", age=0)
            statuses = []
            for address in group.addresses:
                connection = await transport.connect(address)
                statuses.append(await _rpc(connection, "status", 1))
            for server in servers:
                await server.stop()
            await transport.close()
            return statuses

        leader_status, follower_status = run(scenario())
        assert leader_status["role"] == "leader"
        assert leader_status["epoch"] == 1
        assert leader_status["log_seq"] >= 1
        assert leader_status["lag"] >= 0
        # status is deliberately not leader-only: the follower answers
        # with its own view instead of a not-leader redirect.
        assert follower_status["role"] == "follower"
        assert follower_status["leader"] == leader_status["address"]
        assert follower_status["status"] == "status"
