"""The insight tier: post-mortem bundles, live status plane, contention.

Third observability layer, after local spans/metrics
(:mod:`repro.obs.trace`) and cross-process tracing
(:mod:`repro.obs.distributed`).  Three instruments:

**Post-mortem bundles.**  A run given a ``postmortem_dir`` records its
timeline into a bounded :class:`~repro.obs.events.EventLog` (the newest
:data:`POSTMORTEM_EVENTS` events, unless the caller supplied a log);
when the run ends badly (:func:`postmortem_reason`) the runtime dumps
that log — with the report and any trace files — into a bundle
(:func:`dump_postmortem`; :func:`load_postmortem` reads it back) that
``repro postmortem DIR`` renders
(:func:`repro.obs.report.render_postmortem`).  A run without a
``postmortem_dir`` records nothing.  Events carry no wall-clock
fields, so a memory-transport run writes a bit-deterministic
``events.jsonl``.

**Status plane.**  Site servers answer ``status`` protocol requests
with their live lock table (holders, FIFO wait queues, grant-timer
deadlines) and local wait-for edges; replicas add lease/epoch/log
state.  :func:`wait_for_graph` stitches the per-site
edges into the global wait-for digraph (:class:`repro.graphs.DiGraph`)
and :func:`deadlock_cycles` enumerates its cycles — external deadlock
detection that cross-checks the runtime's edge-chasing probes from
outside the coordinator.  :func:`probe_sites` drives the probes over
any transport; ``repro cluster status`` renders the assembled
:class:`ClusterStatus`.

**Contention analytics.**  :class:`ContentionTally` keeps cheap
per-entity counters inside every site server (grants, waits, queue
depths, wait-time samples) and ranks them (:func:`rank_contention`)
into ``ClusterReport.contention`` and each arena cell's hottest keys —
the per-entity heat the ROADMAP's sharding work needs.  The offline
replay of ``site.lock_wait`` trace spans
(:func:`repro.obs.report.contention_from_records`) uses the same
ranking.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Iterable

from .. import stats
from ..graphs import DiGraph, simple_cycles
from .events import EventLog

#: Events a post-mortem run keeps when the caller gave no event log:
#: the last few hundred protocol exchanges (~35 KB of ``events.jsonl``).
POSTMORTEM_EVENTS = 512

#: Bounded per-entity sample reservoirs inside a tally.
SAMPLE_CAP = 2048

# ----------------------------------------------------------------------
# Contention analytics
# ----------------------------------------------------------------------
def _sample(samples: list, count: int, value) -> None:
    """Bounded reservoir: deterministic modulo replacement at the cap."""
    if len(samples) < SAMPLE_CAP:
        samples.append(value)
    else:
        samples[count % SAMPLE_CAP] = value


def _ms(ns: float | int | None) -> float | None:
    """Nanoseconds as milliseconds to three places (``None`` stays)."""
    return None if ns is None else round(ns / 1e6, 3)


def wait_stats(samples: list, max_ns: int | None) -> dict[str, float | None]:
    """The wait columns of a contention row: p50, p95 and max over an
    entity's wait samples (nanoseconds), in milliseconds."""
    return {
        "wait_ms_p50": _ms(stats.percentile(samples, 50)),
        "wait_ms_p95": _ms(stats.percentile(samples, 95)),
        "wait_ms_max": _ms(max_ns),
    }


def rank_contention(rows: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """The hot-lock ranking of contention rows, live or replayed:
    most-contended first, by wait count, then longest wait, then entity
    name (the count-first key keeps memory-transport rankings
    deterministic even though the sampled times are wall-clock)."""
    return sorted(rows, key=lambda r: (-r["waits"], -(r["wait_ms_max"] or 0), r["entity"]))


class ContentionTally:
    """Cheap always-on per-entity lock-contention counters.

    A site server feeds it from the lock path — :meth:`granted` on an
    immediate grant, :meth:`blocked` when a request queues (with the
    queue depth it found), :meth:`waited` when the wait resolves (with
    the measured nanoseconds and the outcome).  Each call is a couple
    of dict operations; wait/depth samples live in bounded reservoirs.
    """

    def __init__(self) -> None:
        self._rows: dict[str, dict[str, Any]] = {}

    def _row(self, entity: str) -> dict[str, Any]:
        row = self._rows.get(entity)
        if row is None:
            row = self._rows[entity] = {
                "grants": 0,
                "waits": 0,
                "denied": 0,
                "wait_count": 0,
                "wait_ns_total": 0,
                "wait_ns_max": 0,
                "wait_samples": [],
                "depth_max": 0,
                "depth_samples": [],
            }
        return row

    def granted(self, entity: str) -> None:
        """An immediately granted lock request."""
        self._row(entity)["grants"] += 1

    def blocked(self, entity: str, depth: int) -> None:
        """A request queued behind *depth* earlier waiters."""
        row = self._row(entity)
        row["waits"] += 1
        row["depth_max"] = max(row["depth_max"], depth)
        _sample(row["depth_samples"], row["waits"], depth)

    def waited(self, entity: str, ns: int, result: str = "granted") -> None:
        """A queued wait resolved after *ns* nanoseconds."""
        row = self._row(entity)
        row["wait_count"] += 1
        row["wait_ns_total"] += int(ns)
        row["wait_ns_max"] = max(row["wait_ns_max"], int(ns))
        if result != "granted":
            row["denied"] += 1
        _sample(row["wait_samples"], row["wait_count"], int(ns))

    def merge(self, other: "ContentionTally") -> None:
        """Fold *other*'s counters into this tally (summing counts,
        keeping maxima, concatenating bounded samples)."""
        for entity, theirs in other._rows.items():
            row = self._row(entity)
            for key in ("grants", "waits", "denied", "wait_count",
                        "wait_ns_total"):
                row[key] += theirs[key]
            row["wait_ns_max"] = max(row["wait_ns_max"], theirs["wait_ns_max"])
            row["depth_max"] = max(row["depth_max"], theirs["depth_max"])
            for key in ("wait_samples", "depth_samples"):
                for value in theirs[key]:
                    if len(row[key]) >= SAMPLE_CAP:
                        break
                    row[key].append(value)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def rows(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Hot-lock ranking (:func:`rank_contention`): one row per
        entity, most-contended first."""
        ranked = rank_contention(
            {
                "entity": entity,
                "grants": row["grants"],
                "waits": row["waits"],
                "denied": row["denied"],
                **wait_stats(
                    row["wait_samples"],
                    row["wait_ns_max"] if row["wait_count"] else None,
                ),
                "queue_depth_max": row["depth_max"],
                "queue_depth_p95": stats.percentile(row["depth_samples"], 95),
            }
            for entity, row in self._rows.items()
        )
        return ranked[:limit]


# ----------------------------------------------------------------------
# Status plane: probe, stitch, detect
# ----------------------------------------------------------------------
def wait_for_graph(statuses: Iterable[dict[str, Any]]) -> DiGraph:
    """Stitch per-site ``wait_for`` edge lists into the global
    wait-for digraph (waiter -> the transaction it waits behind)."""
    graph = DiGraph()
    for status in statuses:
        for edge in status.get("wait_for", ()):
            try:
                waiter, blocker = edge
            except (TypeError, ValueError):
                continue
            graph.add_node(waiter)
            graph.add_node(blocker)
            if not graph.has_arc(waiter, blocker):
                graph.add_arc(waiter, blocker)
    return graph


def deadlock_cycles(
    graph: DiGraph, *, limit: int | None = 16
) -> list[list[Any]]:
    """The simple cycles of the stitched wait-for graph — each one a
    deadlock no single site could see."""
    return [list(cycle) for cycle in simple_cycles(graph, limit=limit)]


class ClusterStatus:
    """One assembled snapshot of a live cluster."""

    def __init__(self, sites: list[dict[str, Any]]) -> None:
        self.sites = list(sites)

    @property
    def errors(self) -> list[dict[str, Any]]:
        return [site for site in self.sites if site.get("error")]

    @property
    def graph(self) -> DiGraph:
        return wait_for_graph(
            site for site in self.sites if not site.get("error")
        )

    @property
    def cycles(self) -> list[list[Any]]:
        return deadlock_cycles(self.graph)

    def to_dict(self) -> dict[str, Any]:
        graph = self.graph
        return {
            "sites": self.sites,
            "wait_for": [[tail, head] for tail, head in graph.arcs()],
            "cycles": self.cycles,
        }

    def render(self) -> str:
        lines = [
            f"cluster status: {len(self.sites)} probe(s), "
            f"{len(self.errors)} error(s)"
        ]
        for site in self.sites:
            if site.get("error"):
                lines.append(f"site {site.get('site', '?')}  UNREACHABLE: {site['error']}")
                continue
            role = site.get("role", "site")
            head = (
                f"site {site.get('site', '?')}  [{role}]  "
                f"processed={site.get('processed', 0)} "
                f"locks={len(site.get('lock_table', []))} "
                f"waiting={len(site.get('pending', []))} "
                f"committed={site.get('committed', 0)}"
            )
            if role != "site":
                head += (
                    f" epoch={site.get('epoch')}"
                    f" leader={site.get('leader')}"
                    f" log_seq={site.get('log_seq')}"
                )
                if site.get("lag") is not None:
                    head += f" lag={site.get('lag')}"
                if site.get("lease_expired"):
                    head += " LEASE-EXPIRED"
            lines.append(head)
            for entry in site.get("lock_table", []):
                waiters = entry.get("waiters") or []
                lines.append(
                    f"  lock {entry.get('entity')}: "
                    f"holder={entry.get('holder')}"
                    + (f" waiters={','.join(map(str, waiters))}" if waiters else "")
                )
            for entry in site.get("pending", []):
                lines.append(
                    f"  pending {entry.get('txn')} -> {entry.get('entity')}"
                    f"  age={entry.get('age')}"
                    + (" timer=armed" if entry.get("timer") else "")
                )
            rows = site.get("contention") or []
            if rows:
                hot = ", ".join(
                    f"{row['entity']}({row['waits']} waits)"
                    for row in rows[:3]
                )
                lines.append(f"  hot: {hot}")
        graph = self.graph
        arcs = graph.arcs()
        lines.append(
            f"global wait-for graph: {graph.node_count()} transaction(s), "
            f"{len(arcs)} edge(s)"
        )
        for tail, head in arcs:
            lines.append(f"  {tail} -> {head}")
        cycles = self.cycles
        if cycles:
            lines.append(f"DEADLOCK: {len(cycles)} cycle(s) detected")
            for cycle in cycles:
                lines.append(
                    "  " + " -> ".join(map(str, cycle + cycle[:1]))
                )
        else:
            lines.append("no wait-for cycles: cluster is deadlock-free now")
        return "\n".join(lines)


async def probe_site(transport, site: int, *, timeout: float = 5.0) -> dict:
    """Send one ``status`` request to *site* over *transport* and
    return the payload (or ``{"site": site, "error": ...}``)."""
    reply = await transport.ask(site, "status", timeout=timeout)
    if reply is None:
        return {"site": site, "error": "no status reply"}
    reply.pop("id", None)
    reply.pop("wire", None)
    reply.setdefault("site", site)
    return reply


async def probe_sites(
    transport, sites: Iterable[int], *, timeout: float = 5.0
) -> ClusterStatus:
    """Probe every site address and assemble a :class:`ClusterStatus`."""
    statuses = []
    for site in sites:
        statuses.append(await probe_site(transport, site, timeout=timeout))
    return ClusterStatus(statuses)


# ----------------------------------------------------------------------
# Post-mortem bundles
# ----------------------------------------------------------------------
def postmortem_reason(report) -> str | None:
    """Why this run deserves an autopsy (``None`` when it was clean)."""
    if not report.serializable:
        return "non-serializable"
    if report.partial_commits:
        return "partial-commit"
    if not report.audit_complete:
        return "audit-incomplete"
    if report.committed != report.transactions:
        return "uncommitted"
    return None


def dump_postmortem(
    directory,
    *,
    report=None,
    event_log=None,
    trace_paths: Iterable[str] = (),
    reason: str | None = None,
    config: dict[str, Any] | None = None,
) -> str:
    """Write a post-mortem bundle into *directory* (created if needed):
    ``MANIFEST.json`` plus ``report.json`` / ``events.jsonl`` and
    copies of *trace_paths* under ``traces/``.
    *config* (``ClusterConfig.to_dict()``: seed, transport, fault plan,
    ...) goes into the manifest so the bundle names the run that
    produced it.  Returns the bundle path."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    manifest: dict[str, Any] = {"bundle": 1, "reason": reason}
    if config is not None:
        manifest["config"] = config

    if report is not None:
        payload = report.to_dict()
        with open(
            os.path.join(directory, "report.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        manifest["report"] = True
    if event_log is not None and len(event_log):
        with open(
            os.path.join(directory, "events.jsonl"), "w", encoding="utf-8"
        ) as handle:
            handle.write(event_log.to_jsonl())
        manifest["events"] = len(event_log)
        manifest["events_dropped"] = event_log.dropped

    copied = []
    for path in trace_paths:
        path = os.fspath(path)
        if not path or not os.path.exists(path):
            continue
        target_dir = os.path.join(directory, "traces")
        os.makedirs(target_dir, exist_ok=True)
        target = os.path.join(target_dir, os.path.basename(path))
        try:
            shutil.copyfile(path, target)
        except OSError:
            continue
        copied.append(os.path.basename(path))
    if copied:
        manifest["traces"] = copied

    with open(
        os.path.join(directory, "MANIFEST.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return directory


def load_postmortem(directory) -> dict[str, Any]:
    """Read a bundle back: manifest, report dict, the event timeline
    (an :class:`~repro.obs.events.EventLog`; bad lines skipped and
    counted — a producer may have died mid-write) and trace records."""
    directory = os.fspath(directory)
    manifest_path = os.path.join(directory, "MANIFEST.json")
    if not os.path.isfile(manifest_path):
        raise ValueError(f"{directory}: not a post-mortem bundle (no MANIFEST.json)")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)

    bundle: dict[str, Any] = {"directory": directory, "manifest": manifest}

    report_path = os.path.join(directory, "report.json")
    if os.path.isfile(report_path):
        try:
            with open(report_path, encoding="utf-8") as handle:
                bundle["report"] = json.load(handle)
        except ValueError:
            bundle["report"] = None

    events_path = os.path.join(directory, "events.jsonl")
    skipped: list[tuple] = []
    bundle["events"] = (
        EventLog.from_jsonl(events_path, on_skip=lambda *skip: skipped.append(skip))
        if os.path.isfile(events_path)
        else EventLog()
    )
    bundle["events_skipped"] = len(skipped)

    traces_dir = os.path.join(directory, "traces")
    trace_records: list[dict[str, Any]] = []
    trace_skipped: list[str] = []
    if os.path.isdir(traces_dir):
        from .report import merge_traces

        paths = sorted(
            os.path.join(traces_dir, name)
            for name in os.listdir(traces_dir)
        )
        trace_records = merge_traces(
            paths,
            on_skip=lambda p, n, why: trace_skipped.append(f"{p}:{n}"),
        )
    bundle["trace_records"] = trace_records
    bundle["trace_skipped"] = trace_skipped
    return bundle
