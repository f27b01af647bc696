"""Property: at most one leader per lease epoch.

Election storms — concurrent campaigns provoked by suspect hints,
with or without the incumbent actually dead — may depose leaders and
race each other, but two replicas must never assume leadership of the
same group in the same epoch: epochs are index-stamped, so every
campaign bids a distinct one, and a quorum promises each epoch to at
most one candidate.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.cluster import LogicalClock, protocol
from repro.cluster.transport import MemoryTransport
from repro.replica import ReplicaGroup, ReplicaServer


async def _ask(transport, address, kind, **fields):
    connection = await transport.connect(address)
    try:
        await connection.send(protocol.request(kind, 1, **fields))
        return await asyncio.wait_for(connection.recv(), 5.0)
    except (asyncio.TimeoutError, Exception):
        return None
    finally:
        await connection.close()


@settings(max_examples=10, deadline=None)
@given(
    replicas=st.integers(2, 5),
    storms=st.integers(1, 3),
    kill_boot_leader=st.booleans(),
)
def test_at_most_one_leader_per_epoch(replicas, storms, kill_boot_leader):
    async def run():
        transport = MemoryTransport()
        clock = LogicalClock()
        group = ReplicaGroup(1, replicas)
        servers = [
            ReplicaServer(
                group,
                index,
                transport=transport,
                clock=clock,
                peers=group.addresses,
                election_timeout=0.05,
            )
            for index in range(replicas)
        ]
        for server in servers:
            await server.start()
        stopped = set()
        try:
            if kill_boot_leader:
                await servers[0].stop()
                stopped.add(0)
            for _ in range(storms):
                # Every live follower is told the current leader is
                # suspect, all at once: maximal campaign contention.
                suspect = group.leader_address
                await asyncio.gather(
                    *(
                        _ask(transport, address, "leader", suspect=suspect)
                        for index, address in enumerate(group.addresses)
                        if index not in stopped and address != suspect
                    )
                )
        finally:
            for index, server in enumerate(servers):
                if index not in stopped:
                    await server.stop()
            await transport.close()
        return servers

    servers = asyncio.run(run())
    group = servers[0].group

    # Every leadership assumption used a distinct epoch.
    epochs = [entry["epoch"] for entry in group.elections]
    assert len(epochs) == len(set(epochs))
    # And no two servers *currently* claim the same epoch's lease.
    claimed = [s.epoch for s in servers if s.is_leader()]
    assert len(claimed) == len(set(claimed))
