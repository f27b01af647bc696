"""Replicated sites: leased leaders, log shipping, failover.

The cluster runtime (:mod:`repro.cluster`) keeps the paper's
assumption that every site stays up — a permanent
:class:`~repro.faults.plan.SiteCrash` leaves its history unreachable
and the audit incomplete.  This package removes the assumption:

* :class:`~repro.replica.group.ReplicaGroup` — N
  :class:`~repro.replica.server.ReplicaServer` replicas stand in for
  each logical site, addressed ``site * 1000 + index``;
* a lease-based leader serves clients and ships every lock-table
  mutation to its followers (:class:`~repro.replica.log.
  ReplicationLog`), awaiting acks before acknowledging a commit;
* :class:`~repro.replica.resolver.LeaderResolver` routes
  :class:`~repro.cluster.coordinator.Coordinator` traffic to the
  current leader and, with the coordinator's idempotent step replay,
  carries in-flight transactions across a failover;
* :class:`~repro.replica.faults.ReplicaFaultAdapter` reinterprets
  fault-plan site crashes as *leader kills*, so existing chaos plans
  become availability experiments;
* :func:`~repro.replica.runtime.run_replicated_cluster` boots it all,
  audits serializability exactly like a plain cluster run, and
  measures recovery time in shared-logical-clock steps.

Protocol and failure semantics are documented in
``docs/replication.md``.
"""

from .faults import ReplicaFaultAdapter
from .group import GroupRegistry, ReplicaGroup, logical_site_of, replica_address
from .log import ReplicationLog
from .resolver import LeaderResolver
from .runtime import ReplicaReport, run_replicated_cluster, run_replicated_sync
from .server import ReplicaServer

__all__ = [
    "ReplicaFaultAdapter",
    "GroupRegistry",
    "ReplicaGroup",
    "logical_site_of",
    "replica_address",
    "ReplicationLog",
    "LeaderResolver",
    "ReplicaReport",
    "run_replicated_cluster",
    "run_replicated_sync",
    "ReplicaServer",
]
