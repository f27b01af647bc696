"""Read what a run left on disk: span traces and post-mortem bundles.

The one module that walks span records: ``repro trace-report FILE ...``
(:func:`summarize_files`) and ``repro postmortem DIR``
(:func:`render_postmortem`) read traces through :func:`merge_traces` and
end with the same contention section.

A span is named by its process and its id there, and a child names its
parent the same way (``parent_pid`` when the parent ran in another
process), so :func:`aggregate`'s self time (duration minus direct
children) and :class:`TraceTree`'s causal links hold across merged
per-process files.  Records with a ``trace_id``
(:mod:`repro.obs.distributed`) add the distributed section: slowest
transaction trees, per-stage wire-latency percentiles, election
annotations.  ``site.lock_wait`` spans replay into the hot-lock ranking
a live :class:`~repro.obs.insight.ContentionTally` keeps, plus convoy and
starvation flags.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable

from .. import stats
from .distributed import STAGES
from .insight import _ms, load_postmortem, rank_contention, wait_stats

#: Span name of a queued lock wait (see ``SiteServer._end_wait``).
LOCK_WAIT_SPAN = "site.lock_wait"

#: Overlapping waiters on one entity at or past this depth is a convoy.
CONVOY_DEPTH = 3

#: A wait this many times the entity's median wait flags starvation.
STARVATION_RATIO = 8.0


def read_jsonl(
    path: str,
    required: tuple[str, ...],
    *,
    on_skip: Callable[[str, int, str], None] | None = None,
) -> list[dict[str, Any]]:
    """Parse a JSONL file into its records: JSON objects carrying every
    *required* key.  The one line loop behind span traces
    (:func:`merge_traces`) and event timelines
    (:meth:`repro.obs.events.EventLog.from_jsonl`).

    A malformed line — a crash-killed producer leaves a truncated final
    line, and post-mortem bundles must stay readable anyway — is
    skipped, invoking *on_skip(path, number, reason)* so callers can
    count a warning instead of dying.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                reason = f"not a JSON record: {exc}"
            else:
                if isinstance(record, dict) and all(key in record for key in required):
                    records.append(record)
                    continue
                reason = f"record lacks {'/'.join(required)} fields"
            if on_skip is not None:
                on_skip(path, number, reason)
    return records


def merge_traces(paths, *, on_skip=None) -> list[dict[str, Any]]:
    """Concatenate the span records of several per-process JSONL trace
    files.  Malformed or truncated lines are skipped, invoking
    *on_skip(path, lineno, reason)* when given (see :func:`read_jsonl`)."""
    return [
        record
        for path in paths
        for record in read_jsonl(str(path), ("span", "dur_ns"), on_skip=on_skip)
    ]


def _span_key(record: dict[str, Any]) -> tuple:
    """The name of a span across merged files: its process and its id."""
    return (record.get("pid", 0), record.get("id"))


def _parent_key(record: dict[str, Any]) -> tuple | None:
    """The :func:`_span_key` of *record*'s parent, ``None`` for a root.
    A remote child names its parent's process in ``parent_pid``."""
    parent = record.get("parent")
    if parent is None:
        return None
    return (record.get("parent_pid", record.get("pid", 0)), parent)


def _table(
    headers: tuple[str, ...],
    rows: Iterable[Iterable[Any]],
    align: str,
    *,
    indent: str = "",
) -> list[str]:
    """Fixed-width lines: *headers* over *rows*, every column as wide as
    its widest cell and two spaces from the next, each cell (header
    included) aligned by its column's character in *align* (``<``
    left, ``>`` right), trailing blanks stripped.  ``None`` prints as
    ``-`` and floats to three places."""
    lines = [list(headers)] + [
        ["-" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return [
        (
            indent
            + "  ".join(
                cell.ljust(width) if how == "<" else cell.rjust(width)
                for cell, width, how in zip(line, widths, align)
            )
        ).rstrip()
        for line in lines
    ]


def aggregate(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-span-name rows: calls, total/self/max nanoseconds, errors.

    Self time of a span is its duration minus the summed durations of
    its *direct* children (linked by :func:`_parent_key`).
    """
    child_ns: dict[tuple, int] = {}
    for record in records:
        key = _parent_key(record)
        if key is not None:
            child_ns[key] = child_ns.get(key, 0) + record["dur_ns"]

    rows: dict[str, dict[str, Any]] = {}
    for record in records:
        name = record["span"]
        row = rows.get(name)
        if row is None:
            row = rows[name] = dict(
                span=name, calls=0, total_ns=0, self_ns=0, max_ns=0, errors=0
            )
        duration = record["dur_ns"]
        own = duration - child_ns.get(_span_key(record), 0)
        row["calls"] += 1
        row["total_ns"] += duration
        row["self_ns"] += max(0, own)
        row["max_ns"] = max(row["max_ns"], duration)
        if record.get("attrs", {}).get("error"):
            row["errors"] += 1
    return sorted(rows.values(), key=lambda row: -row["self_ns"])


def render_table(rows: list[dict[str, Any]], *, limit: int | None = None) -> str:
    """Fixed-width rendering of :func:`aggregate` rows."""
    lines = _table(
        ("span", "calls", "total ms", "self ms", "max ms", "errors"),
        (
            [row["span"], row["calls"]]
            + [_ms(row[key]) for key in ("total_ns", "self_ns", "max_ns")]
            + [row["errors"]]
            for row in rows[:limit]
        ),
        "<>>>>>",
    )
    if limit is not None and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more span name(s)")
    return "\n".join(lines)


class TraceTree:
    """The spans of one ``trace_id``, linked into a causal tree."""

    def __init__(self, trace_id: str, spans: list[dict[str, Any]]) -> None:
        self.trace_id = trace_id
        self.spans = spans
        known = {_span_key(span) for span in spans}
        self._children: dict[tuple, list[dict]] = {}
        self.roots: list[dict[str, Any]] = []
        for span in spans:
            key = _parent_key(span)
            if key in known:
                self._children.setdefault(key, []).append(span)
            else:
                # A root — or an orphan whose parent was traced by a
                # process whose file was not merged in (or tracing
                # started mid-run): surface it rather than drop it.
                self.roots.append(span)

    @property
    def root(self) -> dict[str, Any] | None:
        """The tree's single root when it has exactly one."""
        return self.roots[0] if len(self.roots) == 1 else None

    @property
    def connected(self) -> bool:
        """Does every span hang off one root?"""
        return len(self.roots) == 1

    @property
    def duration_ns(self) -> int:
        root = self.root
        if root is not None:
            return root["dur_ns"]
        return max((s["dur_ns"] for s in self.spans), default=0)

    @property
    def name(self) -> str:
        root = self.root
        attrs = (root or {}).get("attrs", {})
        return str(attrs.get("txn", self.trace_id))

    def children_of(self, span: dict[str, Any]) -> list[dict[str, Any]]:
        """Direct children of *span*, in start order per process."""
        kids = self._children.get(_span_key(span), [])
        return sorted(kids, key=lambda s: (s.get("pid", 0), s.get("start_ns", 0)))

    def render(self, *, max_spans: int = 40) -> list[str]:
        """Indented one-line-per-span rendering of the tree."""
        lines: list[str] = []

        def visit(span: dict[str, Any], depth: int) -> None:
            if len(lines) >= max_spans:
                return
            attrs = span.get("attrs", {})
            extras = " ".join(
                f"{key}={attrs[key]}"
                for key in ("entity", "site", "status", "result", "outcome")
                if key in attrs
            )
            lines.append(
                "  " * depth
                + f"{span['span']}  {span['dur_ns'] / 1e6:.3f} ms"
                + f"  [pid {span.get('pid', 0)}]"
                + (f"  {extras}" if extras else "")
            )
            for child in self.children_of(span):
                visit(child, depth + 1)

        for root in sorted(self.roots, key=lambda s: -s["dur_ns"]):
            visit(root, 0)
        if len(self.spans) > max_spans:
            lines.append(f"  ... {len(self.spans) - max_spans} more span(s)")
        return lines


def trace_trees(records: list[dict[str, Any]]) -> list[TraceTree]:
    """Group *records* by ``trace_id`` into :class:`TraceTree` objects,
    slowest first.  Spans without a ``trace_id`` (ordinary local spans)
    are left out."""
    grouped: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        trace_id = record.get("trace_id")
        if trace_id is not None:
            grouped.setdefault(trace_id, []).append(record)
    trees = [TraceTree(trace_id, spans) for trace_id, spans in grouped.items()]
    return sorted(trees, key=lambda tree: -tree.duration_ns)


def stage_rows(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-stage latency summary rows (count / p50 / p90 / p99 / max,
    nanoseconds) from the ``<stage>_ns`` attributes of merged trace
    records."""
    samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for record in records:
        attrs = record.get("attrs", {})
        for stage in STAGES:
            value = attrs.get(f"{stage}_ns")
            if isinstance(value, (int, float)):
                samples[stage].append(float(value))
    return [
        {
            "stage": stage,
            "count": len(values),
            "p50_ns": stats.percentile(values, 50),
            "p90_ns": stats.percentile(values, 90),
            "p99_ns": stats.percentile(values, 99),
            "max_ns": max(values),
        }
        for stage, values in samples.items()
        if values
    ]


def render_distributed(records: list[dict[str, Any]], *, trees: int = 3) -> str | None:
    """The distributed-trace section for merged *records*: slowest
    transaction trees, the per-stage latency percentile table, and
    election annotations.  ``None`` when no record carries a
    ``trace_id`` (a purely local trace)."""
    forest = trace_trees(records)
    if not forest:
        return None
    lines = [
        f"distributed traces: {len(forest)} transaction(s), "
        f"{sum(len(tree.spans) for tree in forest)} spans, "
        f"{sum(1 for tree in forest if tree.connected)} fully connected"
    ]
    for tree in forest[:trees]:
        lines.append("")
        lines.append(
            f"-- {tree.name}  ({tree.trace_id}, "
            f"{tree.duration_ns / 1e6:.3f} ms"
            + ("" if tree.connected else ", DISCONNECTED")
            + ") --"
        )
        lines.extend(tree.render())
    if len(forest) > trees:
        lines.append(f"... {len(forest) - trees} more transaction(s)")

    stages = stage_rows(records)
    if stages:
        lines.append("")
        lines.append("per-stage latency (from span attributes):")
        lines += _table(
            ("stage", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"),
            (
                [row["stage"], row["count"]]
                + [_ms(row[key]) for key in ("p50_ns", "p90_ns", "p99_ns", "max_ns")]
                for row in stages
            ),
            "<>>>>>",
            indent="  ",
        )

    annotations = [r for r in records if r["span"] in ("replica.campaign", "replica.elect")]
    if annotations:
        lines.append("")
        lines.append("elections and failovers:")
        for record in annotations:
            attrs = record.get("attrs", {})
            detail = " ".join(
                f"{key}={attrs[key]}"
                for key in ("address", "epoch", "won", "clock")
                if key in attrs
            )
            lines.append(
                f"  {record['span']}  {record['dur_ns'] / 1e6:.3f} ms"
                + (f"  {detail}" if detail else "")
            )
    return "\n".join(lines)


def contention_from_records(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Hot-lock rows from merged trace records: group ``site.lock_wait``
    spans by entity, compute wait percentiles and peak overlap depth,
    rank (:func:`~repro.obs.insight.rank_contention`), and flag convoys
    (``>=`` :data:`CONVOY_DEPTH` simultaneous waiters) and starved
    waits (a wait longer than :data:`STARVATION_RATIO` x the entity's
    median)."""
    waits: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        entity = record.get("attrs", {}).get("entity")
        if record.get("span") == LOCK_WAIT_SPAN and entity is not None:
            waits.setdefault(str(entity), []).append(record)

    rows = []
    for entity, spans in waits.items():
        durations = [span.get("dur_ns", 0) for span in spans]
        median = stats.percentile(durations, 50) or 0.0
        starved = {
            str(span["attrs"]["txn"])
            for span, duration in zip(spans, durations)
            if span["attrs"].get("txn") is not None and 0 < STARVATION_RATIO * median < duration
        }
        # Peak queue depth: sweep the wait intervals per process (span
        # clocks are only comparable within one pid).
        depth_max = 0
        for pid in {span.get("pid", 0) for span in spans}:
            points = []
            for span, duration in zip(spans, durations):
                if span.get("pid", 0) == pid:
                    start = span.get("start_ns", 0)
                    points += [(start, 1), (start + duration, -1)]
            depth = 0
            for _, delta in sorted(points):
                depth += delta
                depth_max = max(depth_max, depth)
        rows.append(
            {
                "entity": entity,
                "waits": len(spans),
                "denied": sum(
                    span["attrs"].get("result", "granted") != "granted" for span in spans
                ),
                **wait_stats(durations, max(durations)),
                "queue_depth_max": depth_max,
                "convoy": depth_max >= CONVOY_DEPTH,
                "starved": sorted(starved),
            }
        )
    return rank_contention(rows)


_CONTENTION_KEYS = (
    "entity", "waits", "denied", "wait_ms_p50", "wait_ms_p95", "wait_ms_max", "queue_depth_max",
)


def render_contention(rows: list[dict[str, Any]], *, limit: int = 10) -> str:
    """Fixed-width rendering of contention rows (either flavour)."""
    if not rows:
        return "contention: no lock waits recorded"
    table = []
    for row in rows[:limit]:
        flags = ["convoy"] if row.get("convoy") else []
        if row.get("starved"):
            flags.append("starved:" + ",".join(row["starved"][:3]))
        table.append([row.get(key) for key in _CONTENTION_KEYS] + [" ".join(flags)])
    lines = [f"contention: {len(rows)} contended entit(ies)"]
    lines += _table(
        ("entity", "waits", "denied", "p50 ms", "p95 ms", "max ms", "depth", "flags"),
        table,
        "<>>>>>><",
        indent="  ",
    )
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more entit(ies)")
    return "\n".join(lines)


def _contention_section(records, *, limit: int) -> str | None:
    """The trace section both renderings end with: the hot-lock table of
    the lock waits among merged trace *records* (``None`` without any)."""
    rows = contention_from_records(records)
    return render_contention(rows, limit=limit) if rows else None


def summarize_files(paths: list[str], *, limit: int | None = None, trees: int = 3) -> str:
    """Merge one trace file per process, aggregate, and render — with
    the distributed section appended when the trace carries
    cross-process records, and the contention section when it holds
    lock waits."""
    skipped: list[str] = []
    records = merge_traces(paths, on_skip=lambda p, n, why: skipped.append(f"{p}:{n}: {why}"))
    if skipped and not records:
        # Damaged lines inside a real trace are survivable; a file (or
        # set) with *nothing but* damage is not a trace at all.
        raise ValueError(skipped[0])
    rows = aggregate(records)
    shown = paths[0] if len(paths) == 1 else f"{len(paths)} files"
    header = (
        f"trace {shown}: {len(records)} spans, "
        f"{len(rows)} distinct names, "
        f"{len({record.get('pid', 0) for record in records})} process(es)"
    )
    if skipped:
        header += (
            f"\nwarning: skipped {len(skipped)} malformed line(s): "
            + "; ".join(skipped[:3])
            + (" ..." if len(skipped) > 3 else "")
        )
    sections = (
        header,
        render_table(rows, limit=limit),
        render_distributed(records, trees=trees),
        _contention_section(records, limit=10),
    )
    return "\n\n".join(section for section in sections if section is not None)


def render_postmortem(directory, *, tail: int = 20) -> str:
    """Human-readable rendering of a post-mortem bundle
    (:func:`~repro.obs.insight.load_postmortem`)."""
    bundle = load_postmortem(directory)
    manifest = bundle["manifest"]
    reason = manifest.get("reason", "unknown")
    lines = [f"post-mortem bundle {bundle['directory']}: reason={reason}"]
    config = manifest.get("config")
    if config:
        lines.append(
            "config: "
            + " ".join(
                f"{key}={value}"
                for key, value in config.items()
                if value is not None and key not in ("fault_plan", "arrivals", "latency")
            )
        )
        if config.get("fault_plan"):
            lines.append(f"fault plan: {json.dumps(config['fault_plan'], sort_keys=True)}")

    report = bundle.get("report")
    if report:
        lines.append(
            f"run: mode={report.get('mode')} "
            f"transactions={report.get('transactions')} "
            f"committed={report.get('committed')} "
            f"serializable={report.get('serializable')} "
            f"audit_complete={report.get('audit_complete')}"
        )
        unreachable = report.get("unreachable_sites")
        if unreachable:
            lines.append(f"unreachable sites: {unreachable}")
        bad = [o for o in report.get("outcomes", []) if o.get("outcome") != "committed"]
        for outcome in bad[:10]:
            detail = outcome.get("detail")
            lines.append(
                f"  {outcome.get('name')}: {outcome.get('outcome')}"
                + (f" ({detail})" if detail else "")
            )
        if len(bad) > 10:
            lines.append(f"  ... {len(bad) - 10} more non-committed outcome(s)")
        rows = report.get("contention") or []
        if rows:
            lines.append(render_contention(rows, limit=5))

    events = bundle["events"]
    if events:
        dropped, corrupt = manifest.get("events_dropped", 0), bundle["events_skipped"]
        lines.append(
            f"timeline: {len(events)} event(s) retained"
            + (f", {dropped} older dropped" if dropped else "")
            + (f", {corrupt} corrupt line(s) skipped" if corrupt else "")
        )
        lines.extend(f"  {event}" for event in list(events)[max(len(events) - tail, 0):])

    records, skipped = bundle["trace_records"], bundle["trace_skipped"]
    if records:
        lines.append(
            f"traces: {len(records)} span(s) from {len(manifest.get('traces', []))} file(s)"
            + (f", skipped {len(skipped)} bad line(s)" if skipped else "")
        )
        section = _contention_section(records, limit=5)
        if section is not None:
            lines.append(section)
    return "\n".join(lines)
