"""A real networked multi-site lock-manager runtime.

Where :mod:`repro.sim` interleaves steps inside one process under a
driver's thumb, this package runs the paper's model as an actual
distributed system: one :class:`SiteServer` per site owning that
site's lock table and update order, :class:`Coordinator` clients
executing transactions *as partial orders* over a length-prefixed JSON
wire protocol, edge-chasing deadlock probes with the
:mod:`repro.faults.policies` victim rules, and a :class:`Gateway` that
runs the :mod:`repro.service` static safety vetting before anything
touches the wire.

Two transports share the protocol and one :class:`Connection` class:
:class:`MemoryTransport` (in-loop mailboxes, deterministic, what the
tests and the benchmark's reproducibility check use) and
:class:`TcpTransport` (real sockets, what ``repro cluster serve``
deploys).  :func:`run_cluster` boots a cluster, drives a workload
through it and audits every committed history for
conflict-serializability via :mod:`repro.sim.analysis` — the
experiment that shows the paper's *safety* guarantee surviving contact
with a network, and its absence showing up as real anomalies.
"""

from .coordinator import Coordinator, TxnOutcome
from .gateway import Gateway, GatewayDecision
from .netfaults import LogicalClock, NetworkFaultAdapter
from .protocol import PEER_KINDS, REQUEST_KINDS, ProtocolError
from .runtime import (
    ClusterConfig,
    ClusterError,
    ClusterReport,
    run_cluster,
    run_cluster_sync,
    run_sync,
)
from .siteserver import SiteServer
from .transport import (
    Connection,
    LatencyMatrix,
    LatencyTransport,
    MemoryTransport,
    TcpTransport,
    Transport,
    TransportError,
)

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterReport",
    "Connection",
    "Coordinator",
    "Gateway",
    "GatewayDecision",
    "LatencyMatrix",
    "LatencyTransport",
    "LogicalClock",
    "MemoryTransport",
    "NetworkFaultAdapter",
    "PEER_KINDS",
    "ProtocolError",
    "REQUEST_KINDS",
    "SiteServer",
    "TcpTransport",
    "Transport",
    "TransportError",
    "TxnOutcome",
    "run_cluster",
    "run_cluster_sync",
    "run_sync",
]
