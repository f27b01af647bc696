"""Client-side leader discovery for replicated sites.

A :class:`LeaderResolver` is shared by every
:class:`~repro.cluster.coordinator.Coordinator` of a run.  It maps a
logical site id to the transport address of the replica currently
holding that site's lease, caching aggressively: the common case is one
``leader`` query per site per run.  When a request to the cached
address fails (connection refused, wall-clock timeout, a ``not-leader``
redirect) the coordinator calls :meth:`invalidate`, and the next
:meth:`resolve` re-queries the group round-robin — carrying the dead
address as a *suspect* hint, which is what licenses a follower to
campaign before its lease view expires (see :meth:`repro.replica.
server.ReplicaServer._on_leader`).

Everything here speaks the wire protocol, never shared memory, so the
same resolver drives memory-transport tests and TCP deployments.
"""

from __future__ import annotations

from ..cluster.transport import Transport, TransportError
from .server import ELECTION_TIMEOUT

#: Wall-clock bound on one ``leader`` query.  A queried follower may
#: campaign before answering, and one campaign waits up to an election
#: timeout on a dead peer's vote: leave comfortable headroom over that.
QUERY_TIMEOUT = 3 * ELECTION_TIMEOUT


class LeaderResolver:
    """Cached site -> leader-address lookup over ``leader`` queries."""

    def __init__(self, transport: Transport, addresses: dict[int, tuple[int, ...]]) -> None:
        self.transport = transport
        #: Logical site -> every replica address of its group.
        self.addresses = {site: tuple(addrs) for site, addrs in addresses.items()}
        self._cache: dict[int, int] = {}
        self._suspect: dict[int, int] = {}
        self._offset: dict[int, int] = {}

    # ------------------------------------------------------------------
    def invalidate(self, site: int, hint: int | None = None) -> None:
        """Forget *site*'s cached leader; it stopped behaving like one.

        The forgotten address becomes the group's *suspect* until a new
        leader is resolved.  A *hint* (the ``leader`` field of a
        ``not-leader`` redirect) short-circuits the next resolve.
        """
        dead = self._cache.pop(site, None)
        if dead is not None and dead != hint:
            self._suspect[site] = dead
        if hint is not None and hint != self._suspect.get(site):
            self._cache[site] = int(hint)

    def cached(self, site: int) -> int | None:
        """*site*'s cached leader address, or ``None`` when only a
        :meth:`resolve` query can tell."""
        return self._cache.get(site)

    async def resolve(self, site: int) -> int:
        """The current leader address of *site* (cached or queried)."""
        cached = self._cache.get(site)
        if cached is not None:
            return cached
        addrs = self.addresses[site]
        suspect = self._suspect.get(site)
        start = self._offset.get(site, 0)
        for i in range(len(addrs)):
            address = addrs[(start + i) % len(addrs)]
            self._offset[site] = (start + i + 1) % len(addrs)
            if address == suspect and len(addrs) > 1:
                continue
            reply = await self._query(address, suspect)
            if reply is None:
                continue
            leader = reply.get("leader")
            if leader is None:
                continue
            leader = int(leader)
            if leader == suspect and len(addrs) > 1:
                # A follower that has not yet noticed its leader died.
                continue
            self._cache[site] = leader
            self._suspect.pop(site, None)
            return leader
        raise TransportError(f"no replica of site {site} answered a leader query")

    async def _query(self, address: int, suspect: int | None) -> dict | None:
        """One-shot ``leader`` request; ``None`` on any failure."""
        fields = {"suspect": suspect} if suspect is not None else {}
        return await self.transport.ask(address, "leader", timeout=QUERY_TIMEOUT, **fields)
