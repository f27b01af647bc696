"""Boot a cluster, run a workload through it, audit the result.

The one run path every entry point shares (:func:`run_cluster`,
:func:`run_sync`, :func:`repro.replica.run_replicated_cluster`): it
validates a :class:`ClusterConfig`, boots the configured
:class:`Topology` — one :class:`~repro.cluster.siteserver.SiteServer`
per site, or a replica group per site — on the chosen transport, vets
the workload through the :class:`~repro.cluster.gateway.Gateway`,
executes *rounds* copies of every transaction with a bounded number
of concurrent :class:`~repro.cluster.coordinator.Coordinator` clients,
then pulls each site's committed per-entity update orders and checks
the whole distributed history for conflict-serializability with
:func:`repro.sim.analysis.serializable_from_site_orders`.

Under the memory transport the entire run — message order, deadlock
victims, backoff jitter, final histories — is a pure function of the
workload and *seed*; the :class:`ClusterReport` carries a history
fingerprint so the benchmark can assert exactly that.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

from ..core.schedule import TransactionSystem
from ..core.transaction import Transaction
from ..errors import ReproError
from ..faults.plan import FaultPlan
from ..obs import distributed, trace
from ..obs.events import EventLog
from ..obs.insight import (
    POSTMORTEM_EVENTS,
    ContentionTally,
    dump_postmortem,
    postmortem_reason,
)
from ..obs.metrics import REGISTRY
from ..sim.analysis import (
    serial_witness_from_site_orders,
    serializable_from_site_orders,
)
from . import protocol
from .coordinator import Coordinator, SiteClientPool, TxnOutcome
from .gateway import Gateway, GatewayDecision
from .netfaults import LogicalClock, NetworkFaultAdapter
from .siteserver import SiteServer
from .transport import (
    LatencyMatrix,
    LatencyTransport,
    MemoryTransport,
    TcpTransport,
    Transport,
)


class ClusterError(ReproError):
    """The cluster runtime was configured or driven incorrectly."""


@dataclass
class ClusterReport:
    """Everything one cluster run produced."""

    transport: str
    sites: int
    mode: str
    transactions: int
    outcomes: list[TxnOutcome] = field(default_factory=list)
    site_orders: dict[str, list[str]] = field(default_factory=dict)
    serializable: bool = True
    serial_witness: list[str] | None = None
    messages: int = 0
    dropped: int = 0
    wall_seconds: float = 0.0
    gateway: GatewayDecision | None = None
    #: Sites whose history could not be collected — the audit below
    #: ran without their site orders and is incomplete.
    unreachable_sites: list[int] = field(default_factory=list)
    #: Merged per-entity contention rows from every site's
    #: :class:`~repro.obs.insight.ContentionTally` (hottest first).
    #: Carries wall-clock wait percentiles, so — like
    #: :attr:`wall_seconds` — it is excluded from both fingerprints.
    contention: list[dict] = field(default_factory=list)
    #: Path of the post-mortem bundle written for this run, if any.
    postmortem: str | None = None

    @property
    def committed(self) -> int:
        return sum(1 for o in self.outcomes if o.committed)

    @property
    def partial_commits(self) -> int:
        """Transactions whose commit went un-acked at some site; their
        updates may be missing from the audited site orders."""
        return sum(1 for o in self.outcomes if o.outcome == "partial-commit")

    @property
    def audit_complete(self) -> bool:
        """Did the serializability audit see the whole history?"""
        return not self.unreachable_sites and self.partial_commits == 0

    @property
    def retry_exhausted(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "retry-exhausted")

    @property
    def retries_total(self) -> int:
        return sum(o.retries for o in self.outcomes)

    @property
    def history_fingerprint(self) -> str:
        """SHA-256 of the committed site orders (determinism checks)."""
        blob = json.dumps(self.site_orders, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @property
    def outcome_fingerprint(self) -> str:
        """SHA-256 of the per-transaction outcomes *including retry
        counts* — the stronger determinism check: equal fingerprints
        mean the seeded backoff jitter and every abort/retry schedule
        replayed identically, not just the final committed orders."""
        blob = json.dumps(
            [o.to_dict() for o in self.outcomes], sort_keys=True
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        payload = {
            "transport": self.transport,
            "sites": self.sites,
            "mode": self.mode,
            "transactions": self.transactions,
            "committed": self.committed,
            "partial_commits": self.partial_commits,
            "retry_exhausted": self.retry_exhausted,
            "retries_total": self.retries_total,
            "serializable": self.serializable,
            "audit_complete": self.audit_complete,
            "unreachable_sites": self.unreachable_sites,
            "serial_witness": self.serial_witness,
            "messages": self.messages,
            "dropped": self.dropped,
            "history_fingerprint": self.history_fingerprint,
            "outcome_fingerprint": self.outcome_fingerprint,
            "wall_seconds": round(self.wall_seconds, 6),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }
        if self.contention:
            payload["contention"] = self.contention
        if self.postmortem is not None:
            payload["postmortem"] = self.postmortem
        if self.gateway is not None:
            payload["gateway"] = {
                "mode": self.gateway.mode,
                "admitted": self.gateway.admitted,
                "rejected": self.gateway.rejected,
            }
        return payload

    def render(self) -> str:
        lines = [
            f"cluster run: {self.transactions} transactions over "
            f"{self.sites} sites ({self.transport} transport, {self.mode})",
            f"  committed        {self.committed}",
            f"  retry-exhausted  {self.retry_exhausted}",
            f"  retries          {self.retries_total}",
            f"  messages         {self.messages}"
            + (f" ({self.dropped} dropped)" if self.dropped else ""),
            f"  serializable     {'yes' if self.serializable else 'NO'}"
            + ("" if self.audit_complete else " (audit INCOMPLETE)"),
        ]
        if self.partial_commits:
            lines.append(f"  partial-commit   {self.partial_commits}")
        if self.unreachable_sites:
            lines.append(
                "  unreachable      sites "
                + ", ".join(str(s) for s in self.unreachable_sites)
            )
        if self.serial_witness:
            preview = ", ".join(self.serial_witness[:6])
            if len(self.serial_witness) > 6:
                preview += ", ..."
            lines.append(f"  witness          {preview}")
        hot = [row for row in self.contention if row.get("waits")]
        if hot:
            ranked = ", ".join(f"{row['entity']}({row['waits']} waits)" for row in hot[:3])
            lines.append(f"  hot locks        {ranked}")
        if self.postmortem is not None:
            lines.append(f"  post-mortem      {self.postmortem}")
        lines.append(f"  wall time        {self.wall_seconds:.3f}s")
        return "\n".join(lines)


def _build_workload(system: TransactionSystem, rounds: int) -> list[Transaction]:
    """*rounds* instances of every transaction; round 1 keeps the
    original names so single-round runs read like the paper."""
    workload: list[Transaction] = []
    for round_no in range(1, rounds + 1):
        for tx in system.transactions:
            if round_no == 1:
                workload.append(tx)
            else:
                workload.append(tx.renamed(f"{tx.name}@r{round_no}"))
    return workload


#: Last-resort bound (seconds) on one history fetch, so a wedged site
#: can never hang :func:`run_cluster` at collection time.
HISTORY_TIMEOUT = 30.0


async def _fetch_history(
    transport: Transport, site: int, timeout: float
) -> dict[str, list[str]] | None:
    """One-shot ``history`` request: the committed per-entity update
    orders of *site*, or ``None`` when the site is unreachable, hangs
    up or does not answer within *timeout* seconds."""
    reply = await transport.ask(site, "history", timeout=timeout)
    return None if reply is None else reply.get("site_orders", {})


@dataclass(frozen=True)
class ClusterConfig:
    """Every knob of one cluster run; a new knob is a field here,
    nothing else.  *transport* is ``"memory"``, ``"tcp"`` or a ready
    :class:`~repro.cluster.transport.Transport`; *concurrency* bounds
    simultaneously running coordinators; *grant_timeout* (transport
    ticks) arms per-site lock-grant timers; *request_timeout*
    (seconds) bounds each request round trip — required when message
    drops are injected, since a dropped request gets no reply.
    *wire_metrics* turns on the per-stage wire-latency histograms and
    byte counters (:data:`repro.obs.distributed.WIRE`) for this run.
    *codec* (``"json"`` or ``"binary"``) is what every connection of
    the run sends with; the runner builds its transport with it, and a
    ready *transport* must already use it.  *batch* ships each
    coordinator's eligible steps per site in single pipelined frames.
    Either choice changes the wire format, not the outcome: runs stay
    deterministic on the memory transport *per configuration*.

    *arrivals* switches submission from closed-loop to **open-loop**:
    instead of *concurrency* clients each starting the next transaction
    when the previous finishes, coordinator *i* starts at absolute tick
    ``arrivals[i]`` on the transport clock regardless of how the
    cluster is keeping up (one entry per workload instance, ``rounds``
    × system size).  *latency* wraps the transport in a
    :class:`~repro.cluster.transport.LatencyTransport`, charging every
    frame the configured cross-region delay.  Both come from traffic
    specs (:mod:`repro.workloads.traffic`); plain clusters only.

    *postmortem_dir* arms the post-mortem: the run records its
    timeline into *event_log*, or, when the caller gave none, into a
    bounded :class:`~repro.obs.events.EventLog` of the newest
    :data:`~repro.obs.insight.POSTMORTEM_EVENTS` events.  When the run
    ends badly (:func:`~repro.obs.insight.postmortem_reason`:
    non-serializable, partial-commit, an incomplete audit, or a
    transaction that did not commit) a bundle (report, events, trace
    files, this configuration) is written there and recorded in
    :attr:`ClusterReport.postmortem`.  Without it, nothing is recorded
    or written.

    *replicas* picks the topology: ``None`` boots one plain
    :class:`~repro.cluster.siteserver.SiteServer` per site; a count
    makes every site a :class:`~repro.replica.group.ReplicaGroup` of
    that many replicas (``1`` still builds a one-replica group) with
    *lease_ticks* leases.
    """

    transport: str | Transport = "memory"
    rounds: int = 1
    concurrency: int = 8
    deadlock_policy: str = "abort-youngest"
    max_retries: int = 5
    seed: int = 0
    vet: bool = True
    fault_plan: FaultPlan | None = None
    event_log: EventLog | None = None
    grant_timeout: int | None = None
    request_timeout: float | None = None
    gateway: Gateway | None = None
    wire_metrics: bool = False
    codec: str = "json"
    batch: bool = False
    arrivals: Sequence[int] | None = None
    latency: LatencyMatrix | None = None
    postmortem_dir: str | None = None
    replicas: int | None = None
    lease_ticks: int = 64

    def validate(self, system: TransactionSystem) -> None:
        """Raise unless this configuration can run *system*.  The
        runner calls it once, before it touches any process-global
        state, so a rejected configuration leaves none behind."""
        if self.rounds < 1:
            raise ClusterError(f"need at least one round, got {self.rounds}")
        if self.concurrency < 1:
            raise ClusterError(f"need concurrency >= 1, got {self.concurrency}")
        if self.max_retries < 0:
            raise ClusterError(f"need max_retries >= 0, got {self.max_retries}")
        if not (isinstance(self.transport, Transport) or self.transport in ("memory", "tcp")):
            raise ClusterError(
                f"unknown transport {self.transport!r} (memory, tcp, or a Transport)"
            )
        codec = protocol.codec_named(self.codec)  # raises on an unknown codec name
        if isinstance(self.transport, Transport) and self.transport.codec is not codec:
            raise ClusterError(f"the ready transport does not send with codec {self.codec!r}")
        if self.replicas is not None:
            if self.replicas < 1:
                raise ClusterError(f"need at least one replica per site, got {self.replicas}")
            if self.arrivals is not None or self.latency is not None:
                raise ClusterError(
                    "arrivals and latency drive the plain cluster runtime; "
                    "they cannot be combined with replicas"
                )
        if self.arrivals is not None and len(self.arrivals) != self.rounds * len(system):
            raise ClusterError(
                f"arrivals must cover the whole workload: got "
                f"{len(self.arrivals)} start ticks for "
                f"{self.rounds * len(system)} transaction instances"
            )
        if self.fault_plan is not None:
            self.fault_plan.validate_against(system)
            if self.request_timeout is None and self.replicas is not None:
                raise ClusterError(
                    "replicated runs under a fault plan need request_timeout: "
                    "a killed leader answers nothing, and the client timeout "
                    "is what triggers re-resolution and failover"
                )
            if self.request_timeout is None and any(
                crash.recover_at is None for crash in self.fault_plan.site_crashes
            ):
                raise ClusterError(
                    "fault plan crashes a site permanently (recover_at omitted); "
                    "set request_timeout so requests to the dead site can fail "
                    "instead of hanging the run"
                )

    def to_dict(self) -> dict:
        """The value knobs, JSON-shaped: what a post-mortem bundle
        records so it can say which run produced it."""
        payload = {
            knob.name: getattr(self, knob.name)
            for knob in fields(self)
            if knob.name not in ("event_log", "gateway")
        }
        if not isinstance(self.transport, str):
            payload["transport"] = type(self.transport).__name__
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        if self.arrivals is not None:
            payload["arrivals"] = list(self.arrivals)
        if self.latency is not None:
            payload["latency"] = dict(vars(self.latency))
        return payload


class Topology:
    """The seam of the one run path: what a plain and a replicated
    cluster do differently, and nothing else.  A topology builds the
    run's one :attr:`clock` and :attr:`servers` (and the fault adapter
    they consult), says how coordinators reach a site (:attr:`routing`:
    extra :class:`~repro.cluster.coordinator.Coordinator` keywords), fetches
    a logical site's committed history (``fetch_history(site,
    timeout)``, ``None`` when unreachable) and builds the report.
    Validation, wiring, vetting, scheduling, audit and post-mortem are
    the runner's and exist once.
    """

    span = "cluster.run"
    #: Metric families the runner resets before the run.
    metric_prefixes: tuple[str, ...] = ("repro_cluster_",)

    def __init__(
        self, system: TransactionSystem, config: ClusterConfig, transport: Transport
    ) -> None:
        self.config = config
        self.transport = transport
        self.sites = tuple(range(1, system.database.sites + 1))
        self.clock = LogicalClock()
        self.faults: NetworkFaultAdapter | None = None
        self.servers: list[SiteServer] = []
        self.routing: dict = {}

    def server_knobs(self) -> dict:
        """Constructor keywords every kind of site server takes."""
        config = self.config
        return {
            "transport": self.transport,
            "deadlock_policy": config.deadlock_policy,
            "grant_timeout": config.grant_timeout,
            "clock": self.clock,
            "faults": self.faults,
            "event_log": config.event_log,
            "seed": config.seed,
        }

    async def close(self) -> None:
        for server in self.servers:
            await server.stop()

    def report(self, **fields) -> ClusterReport:
        return ClusterReport(**fields)

    def span_attributes(self) -> dict:
        """Topology-specific attributes of the finished run's span."""
        return {}


class SiteTopology(Topology):
    """One plain :class:`SiteServer` per site; every coordinator shares
    one :class:`SiteClientPool`."""

    def __init__(self, system, config, transport) -> None:
        super().__init__(system, config, transport)
        if config.fault_plan is not None:
            self.faults = NetworkFaultAdapter(
                config.fault_plan, clock=self.clock, event_log=config.event_log
            )
        self.servers = [
            SiteServer(site, peers=self.sites, **self.server_knobs())
            for site in self.sites
        ]
        self.pool = SiteClientPool(transport)
        self.routing = {"pool": self.pool}

    async def fetch_history(self, site, timeout):
        if not self.servers[site - 1].running:
            return None
        return await _fetch_history(self.transport, site, timeout)

    async def close(self) -> None:
        await self.pool.close()
        await super().close()


async def _execute(workload: list[Transaction], topology: Topology) -> list[TxnOutcome]:
    """Run one coordinator per *workload* instance: closed-loop behind
    a *concurrency*-wide gate, or open-loop at the *arrivals* ticks."""
    config, transport = topology.config, topology.transport
    arrivals = config.arrivals
    gate = asyncio.Semaphore(config.concurrency)

    async def start_one(index: int, tx: Transaction) -> TxnOutcome:
        coordinator = Coordinator(
            tx,
            transport=transport,
            age=index,
            max_retries=config.max_retries,
            request_timeout=config.request_timeout,
            seed=config.seed,
            batch=config.batch,
            **topology.routing,
        )
        return await coordinator.run()

    async def run_one(index: int, tx: Transaction) -> TxnOutcome:
        if arrivals is not None:
            # Open loop: wait for this instance's arrival tick,
            # then submit unconditionally — offered load does
            # not slow down when the cluster saturates.
            if arrivals[index] > 0:
                await transport.sleep(arrivals[index])
            return await start_one(index, tx)
        async with gate:
            return await start_one(index, tx)

    return list(await asyncio.gather(*(run_one(i, tx) for i, tx in enumerate(workload))))


async def _run(system: TransactionSystem, config: ClusterConfig) -> ClusterReport:
    """The one run path: vet, execute, collect site orders, audit.

    Every run starts by resetting its topology's metric families, so
    back-to-back runs in one process (benchmarks, tests) never
    accumulate each other's counts.
    """
    config.validate(system)
    topology_class: type[Topology] = SiteTopology
    if config.replicas is not None:
        # repro.replica is built on this module, so it is imported late.
        from ..replica.runtime import ReplicaTopology as topology_class
    if config.postmortem_dir and config.event_log is None:
        # Once, here: every topology, server, fault adapter and the
        # wire observer then read the same bounded log.
        config = replace(config, event_log=EventLog(capacity=POSTMORTEM_EVENTS))
    event_log = config.event_log

    started = time.perf_counter()
    if isinstance(config.transport, Transport):
        transport = config.transport
        transport_name = type(transport).__name__
    else:
        transport_class = MemoryTransport if config.transport == "memory" else TcpTransport
        transport = transport_class(codec=protocol.codec_named(config.codec))
        transport_name = config.transport
    if config.latency is not None:
        transport = LatencyTransport(transport, config.latency)
        transport_name = f"{transport_name}+latency"

    with trace.span(topology_class.span) as sp:
        if sp:
            sp.set(transport=transport_name, sites=system.database.sites, rounds=config.rounds)
        decision: GatewayDecision | None = None
        topology: Topology | None = None
        for prefix in topology_class.metric_prefixes:
            REGISTRY.reset(prefix=prefix)
        if config.wire_metrics:
            distributed.WIRE.enable_metrics()
        try:
            if config.vet:
                decision = (config.gateway or Gateway()).vet(system)
            topology = topology_class(system, config, transport)
            if event_log is not None:
                # Wire events (send/recv) carry the run clock's tick,
                # so the timeline lines up with fault windows, lease
                # ages and elections.
                distributed.WIRE.attach(event_log, clock=topology.clock)
            for server in topology.servers:
                await server.start()

            workload = _build_workload(system, config.rounds)
            outcomes = await _execute(workload, topology)

            timeout = config.request_timeout
            history_timeout = HISTORY_TIMEOUT if timeout is None else timeout
            site_orders: dict[str, list[str]] = {}
            unreachable: list[int] = []
            for site in topology.sites:
                fetched = await topology.fetch_history(site, history_timeout)
                if fetched is None:
                    unreachable.append(site)
                    continue
                for entity, order in fetched.items():
                    site_orders[entity] = order

            messages = sum(server.processed for server in topology.servers)
        finally:
            if topology is not None:
                await topology.close()
            if not isinstance(config.transport, Transport):
                await transport.close()
            if config.wire_metrics:
                distributed.WIRE.disable_metrics()
            if event_log is not None:
                distributed.WIRE.detach()

        serializable = serializable_from_site_orders(site_orders)
        report = topology.report(
            transport=transport_name,
            sites=system.database.sites,
            mode=decision.mode if decision is not None else "unvetted",
            transactions=len(workload),
            outcomes=outcomes,
            site_orders=site_orders,
            serializable=serializable,
            serial_witness=(
                serial_witness_from_site_orders(site_orders) if serializable else None
            ),
            messages=messages,
            dropped=topology.faults.dropped if topology.faults is not None else 0,
            wall_seconds=time.perf_counter() - started,
            gateway=decision,
            unreachable_sites=unreachable,
        )
        tally = ContentionTally()
        for server in topology.servers:
            tally.merge(server.insight)
        report.contention = tally.rows(limit=16)
        reason = postmortem_reason(report)
        if config.postmortem_dir and reason is not None:
            active_trace = trace.trace_path()
            report.postmortem = dump_postmortem(
                config.postmortem_dir,
                report=report,
                event_log=event_log,
                trace_paths=(active_trace,) if active_trace else (),
                reason=reason,
                config=config.to_dict(),
            )
        if sp:
            sp.set(
                committed=report.committed,
                serializable=report.serializable,
                **topology.span_attributes(),
            )
        return report


def run_sync(system: TransactionSystem, config: ClusterConfig) -> ClusterReport:
    """Run *system* under a ready *config* from synchronous code (the
    CLI, the arena); ``config.replicas`` picks the topology."""
    return asyncio.run(_run(system, config))


async def run_cluster(system: TransactionSystem, **knobs) -> ClusterReport:
    """Execute *rounds* copies of *system* on a live cluster; *knobs*
    are :class:`ClusterConfig`'s fields (all defaults: plain site
    servers on the memory transport, vetted, closed-loop)."""
    return await _run(system, ClusterConfig(**knobs))


def run_cluster_sync(system: TransactionSystem, **kwargs) -> ClusterReport:
    """:func:`run_cluster` from synchronous code (CLI, benchmarks)."""
    return asyncio.run(run_cluster(system, **kwargs))
