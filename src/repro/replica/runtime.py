"""The replicated topology of the one cluster runner.

:func:`run_replicated_cluster` is :func:`repro.cluster.runtime.
run_cluster` with :class:`ReplicaTopology` plugged into the runner's
topology seam: every logical site becomes a
:class:`~repro.replica.group.ReplicaGroup` of N
:class:`~repro.replica.server.ReplicaServer` replicas sharing the run's
one :class:`~repro.cluster.netfaults.LogicalClock`, coordinators route through
a :class:`~repro.replica.resolver.LeaderResolver`, and
:class:`~repro.faults.plan.SiteCrash` entries kill *leaders* instead
of sites.  The :class:`ReplicaReport` extends the cluster report with
the replication story: failover count, the election timeline, and per
kill the **recovery time in logical steps** — shared-clock ticks from
the leader kill to the new leader's first lock grant.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..core.schedule import TransactionSystem
from ..cluster.runtime import ClusterConfig, ClusterReport, Topology, _fetch_history, _run
from ..cluster.transport import TransportError
from .faults import ReplicaFaultAdapter
from .group import GroupRegistry, ReplicaGroup
from .resolver import LeaderResolver
from .server import ReplicaServer


@dataclass
class ReplicaReport(ClusterReport):
    """A :class:`ClusterReport` plus the replication story."""

    replicas: int = 1
    lease_ticks: int = 64
    #: Leader changes after boot, summed over all groups.
    failovers: int = 0
    #: Every leadership assumption: site, epoch, address, clocks.
    elections: list[dict] = field(default_factory=list)
    #: One entry per leader kill; ``recovery_steps`` is the logical
    #: distance from the kill to the new leader's first lock grant
    #: (``None`` when no replacement ever granted one).
    recovery: list[dict] = field(default_factory=list)
    #: Final value of the shared logical clock.
    clock_end: int = 0

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload.update(
            replicas=self.replicas,
            lease_ticks=self.lease_ticks,
            failovers=self.failovers,
            elections=self.elections,
            recovery=self.recovery,
            clock_end=self.clock_end,
        )
        return payload

    def render(self) -> str:
        lines = [
            super().render(),
            f"  replicas         {self.replicas} per site "
            f"(lease {self.lease_ticks} ticks)",
            f"  failovers        {self.failovers}",
        ]
        for entry in self.recovery:
            steps = entry.get("recovery_steps")
            took = f"{steps} steps" if steps is not None else "never recovered"
            lines.append(
                f"  recovery         site {entry['site']}: "
                f"leader {entry['victim']} killed at clock "
                f"{entry['killed_at']}, {took}"
            )
        return "\n".join(lines)


class ReplicaTopology(Topology):
    """Every logical site is a :class:`ReplicaGroup` on the run's one
    clock; coordinators find the lease leader through
    a :class:`LeaderResolver` (no client pool: failover re-dials are
    per-transaction decisions)."""

    span = "replica.run"
    metric_prefixes = ("repro_cluster_", "repro_replica_")

    def __init__(self, system, config, transport) -> None:
        super().__init__(system, config, transport)
        self.registry = GroupRegistry()
        self.groups = [
            ReplicaGroup(
                site, config.replicas, lease_ticks=config.lease_ticks, event_log=config.event_log
            )
            for site in self.sites
        ]
        for group in self.groups:
            self.registry.add(group)
        if config.fault_plan is not None:
            self.faults = ReplicaFaultAdapter(
                config.fault_plan,
                registry=self.registry,
                clock=self.clock,
                event_log=config.event_log,
            )
        addresses = tuple(a for group in self.groups for a in group.addresses)
        self.servers = [
            ReplicaServer(
                group,
                index,
                peers=addresses,
                **self.server_knobs(),
            )
            for group in self.groups
            for index in range(config.replicas)
        ]
        self.resolver = LeaderResolver(
            transport, {group.site: group.addresses for group in self.groups}
        )
        self.routing = {"resolver": self.resolver}

    async def fetch_history(self, site, timeout):
        """History from the site's *current* leader, chasing one more
        failover if the leader dies under us."""
        for _ in range(self.config.replicas + 1):
            try:
                address = await self.resolver.resolve(site)
            except TransportError:
                return None
            fetched = await _fetch_history(self.transport, address, timeout)
            if fetched is not None:
                return fetched
            self.resolver.invalidate(site)
        return None

    def _recovery(self) -> list[dict]:
        """One entry per leader kill, with the logical steps from the
        kill to the replacement leader's first lock grant."""
        recovery: list[dict] = []
        for kill in self.faults.kills if self.faults is not None else ():
            group = self.registry.group(kill["site"])
            successors = [
                entry
                for entry in group.elections
                if entry["elected_at"] >= kill["killed_at"]
                and entry["address"] != kill["victim"]
            ]
            # The replacement that *served*: elections can churn
            # briefly after a kill (a racing candidate deposes the
            # first winner before it grants anything), so recovery
            # ends at the earliest successor grant, whichever
            # epoch delivered it.
            replacement = min(
                (e for e in successors if e["first_grant_at"] is not None),
                key=lambda e: e["first_grant_at"],
                default=successors[0] if successors else None,
            )
            item = dict(kill)
            if replacement is not None:
                item.update(
                    epoch=replacement["epoch"],
                    leader=replacement["address"],
                    elected_at=replacement["elected_at"],
                    first_grant_at=replacement["first_grant_at"],
                )
            first_grant = item.get("first_grant_at")
            item["recovery_steps"] = (
                first_grant - kill["killed_at"] if first_grant is not None else None
            )
            recovery.append(item)
        return recovery

    def report(self, **fields) -> ReplicaReport:
        return ReplicaReport(
            **fields,
            replicas=self.config.replicas,
            lease_ticks=self.config.lease_ticks,
            failovers=sum(group.failovers for group in self.groups),
            elections=[
                {"site": group.site, **entry}
                for group in self.groups
                for entry in group.elections
            ],
            recovery=self._recovery(),
            clock_end=self.clock.now,
        )

    def span_attributes(self) -> dict:
        return {
            "replicas": self.config.replicas,
            "failovers": sum(group.failovers for group in self.groups),
        }


async def run_replicated_cluster(
    system: TransactionSystem, *, replicas: int = 3, **knobs
) -> ReplicaReport:
    """:func:`repro.cluster.runtime.run_cluster` with every site a
    group of *replicas*; *knobs* are the other fields of
    :class:`~repro.cluster.runtime.ClusterConfig`.

    With any fault plan, *request_timeout* is required: failover is
    driven by clients timing out against the killed leader.  A batch
    refused by a follower gets a batch-level ``not-leader`` and the
    coordinator replays its steps through the single-step failover
    path, so batching composes with leader kills.
    """
    return await _run(system, ClusterConfig(replicas=replicas, **knobs))


def run_replicated_sync(system: TransactionSystem, **kwargs) -> ReplicaReport:
    """:func:`run_replicated_cluster` from synchronous code."""
    return asyncio.run(run_replicated_cluster(system, **kwargs))
