"""Failover: leader kills, acked-commit durability, recovery timing."""

import asyncio

from repro.cluster import LogicalClock, protocol
from repro.cluster.transport import MemoryTransport
from repro.replica import (
    ReplicaGroup,
    ReplicaServer,
    run_replicated_sync,
)


async def _ask(transport, address, kind, **fields):
    """One-shot request/reply against a replica."""
    return await transport.ask(address, kind, timeout=5.0, **fields)


class TestLeaderKillRun:
    def test_permanent_leader_kill_is_survived(
        self, transfer_system, kill_leader_plan
    ):
        report = run_replicated_sync(
            transfer_system,
            replicas=3,
            rounds=2,
            seed=7,
            max_retries=8,
            # Wall-clock: generous enough that a busy single-CPU runner
            # never times out a healthy leader, small enough that the
            # killed leader is still detected quickly.
            request_timeout=2.0,
            fault_plan=kill_leader_plan,
        )
        assert report.committed == report.transactions == 4
        assert report.audit_complete
        assert report.serializable
        assert report.failovers >= 1
        assert len(report.recovery) == 1
        entry = report.recovery[0]
        assert entry["site"] == 1
        assert entry["recovery_steps"] is not None
        assert entry["recovery_steps"] > 0

    def test_leader_kill_survived_with_batching_and_binary_codec(
        self, transfer_system, kill_leader_plan
    ):
        # Batched steps and binary frames must compose with failover: a
        # batch refused by a demoted leader (or lost with it) is
        # replayed step-by-step through the retry path, and the dial to
        # the new leader sends binary from its first frame.
        report = run_replicated_sync(
            transfer_system,
            replicas=3,
            rounds=2,
            seed=7,
            max_retries=8,
            request_timeout=2.0,
            fault_plan=kill_leader_plan,
            codec="binary",
            batch=True,
        )
        assert report.committed == report.transactions == 4
        assert report.audit_complete
        assert report.serializable
        assert report.failovers >= 1
        assert report.recovery[0]["recovery_steps"] is not None

    def test_single_replica_fails_honestly(self, transfer_system):
        from repro.faults.plan import FaultPlan, SiteCrash

        # One replica is the paper's crash-vulnerable site: the killed
        # leader has no successor, so the run cannot hide the outage.
        # (Kill early: a one-round run is over by logical time ~30.)
        report = run_replicated_sync(
            transfer_system,
            replicas=1,
            rounds=1,
            seed=7,
            max_retries=2,
            request_timeout=0.25,
            fault_plan=FaultPlan(site_crashes=(SiteCrash(site=1, at=10),)),
        )
        assert report.committed < report.transactions
        assert not report.audit_complete
        assert report.recovery[0]["recovery_steps"] is None


class TestCommitDurability:
    def test_commit_acked_by_old_leader_survives_failover(self):
        """Regression: once the old leader answers ``committed``, the
        transaction must appear in the history served after failover —
        the commit barrier ships the log before the ack."""

        async def run():
            transport = MemoryTransport()
            clock = LogicalClock()
            group = ReplicaGroup(1, 3)
            servers = [
                ReplicaServer(
                    group,
                    index,
                    transport=transport,
                    clock=clock,
                    peers=group.addresses,
                    election_timeout=0.05,
                )
                for index in range(3)
            ]
            for server in servers:
                await server.start()
            old_leader = group.addresses[0]
            try:
                reply = await _ask(
                    transport, old_leader, "lock", txn="T1", entity="x", age=0
                )
                assert reply["status"] == "granted"
                await _ask(
                    transport, old_leader, "update", txn="T1", entity="x", step=1
                )
                await _ask(transport, old_leader, "unlock", txn="T1", entity="x")
                reply = await _ask(transport, old_leader, "commit", txn="T1")
                assert reply["status"] == "committed"

                # The leader dies the instant after acking the commit.
                await servers[0].stop()

                # A client suspects it; a follower campaigns and wins.
                reply = await _ask(
                    transport, group.addresses[1], "leader", suspect=old_leader
                )
                new_leader = int(reply["leader"])
                assert new_leader != old_leader

                history = await _ask(transport, new_leader, "history")
                assert history["site_orders"].get("x") == ["T1"]
            finally:
                for server in servers[1:]:
                    await server.stop()
                await transport.close()

        asyncio.run(run())

    def test_new_leader_inherits_the_lock_table(self):
        """An *unreleased* grant survives too: after failover the new
        leader still refuses the entity to other transactions."""

        async def run():
            transport = MemoryTransport()
            clock = LogicalClock()
            group = ReplicaGroup(1, 3)
            servers = [
                ReplicaServer(
                    group,
                    index,
                    transport=transport,
                    clock=clock,
                    peers=group.addresses,
                    election_timeout=0.05,
                    grant_timeout=None,
                )
                for index in range(3)
            ]
            for server in servers:
                await server.start()
            old_leader = group.addresses[0]
            try:
                reply = await _ask(
                    transport, old_leader, "lock", txn="T1", entity="x", age=0
                )
                assert reply["status"] == "granted"
                await servers[0].stop()
                reply = await _ask(
                    transport, group.addresses[1], "leader", suspect=old_leader
                )
                new_leader = int(reply["leader"])
                holder = next(
                    s for s in servers[1:] if s.address == new_leader
                )
                assert holder.locks.holder("x") == "T1"
            finally:
                for server in servers[1:]:
                    await server.stop()
                await transport.close()

        asyncio.run(run())


class TestDeposedLeader:
    def test_deposed_leader_cancels_steps_parked_behind_a_queued_lock(self):
        """Regression: a leader deposed while a batched lock waits in
        its queue answered the lock ``not-leader`` but never the steps
        parked behind it, so their coordinator futures hung until the
        request timeout."""

        async def run():
            transport = MemoryTransport()
            group = ReplicaGroup(1, 1)
            server = ReplicaServer(group, 0, transport=transport, clock=LogicalClock())
            await server.start()
            try:
                holder = await transport.connect(server.address)
                waiter = await transport.connect(server.address)
                await holder.send(protocol.request("lock", 1, txn="T1", entity="x", age=0))
                assert (await holder.recv())["status"] == "granted"
                await waiter.send(
                    protocol.request(
                        "batch",
                        1,
                        txn="T2",
                        age=1,
                        steps=[
                            {"op": "lock", "id": 10, "entity": "x"},
                            {"op": "update", "id": 11, "entity": "x", "step": 1},
                            {"op": "unlock", "id": 12, "entity": "x"},
                        ],
                    )
                )
                queued = await waiter.recv()
                assert queued["results"] == [{"id": 10, "status": "queued", "entity": "x"}]
                await server._accept_leader(1001, 2)
                return [await asyncio.wait_for(waiter.recv(), 1.0) for _ in range(3)]
            finally:
                await server.stop()
                await transport.close()

        lock, *parked = asyncio.run(run())
        assert (lock["id"], lock["status"]) == (10, "not-leader")
        assert (lock["leader"], lock["epoch"]) == (1001, 2)
        assert [(m["id"], m["status"]) for m in parked] == [(11, "cancelled"), (12, "cancelled")]
