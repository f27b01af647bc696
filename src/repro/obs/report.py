"""Aggregate a JSONL trace into a top-spans table.

``repro trace-report FILE [FILE ...]`` funnels here: every record
written by :mod:`repro.obs.trace` is grouped by span name and
summarized as call count, **total** time (sum of span durations) and
**self** time (total minus the time spent in child spans — the number
that actually ranks where a run went).  Parent/child links are
resolved per ``pid``, so the traces of several processes read
together aggregate correctly.

When the records carry distributed-trace fields
(:mod:`repro.obs.distributed` — a ``trace_id`` per transaction and
cross-process parent links), :func:`summarize_files` appends the
distributed section: the slowest transactions rendered as causal span
trees, a per-stage wire-latency percentile table, and
election/failover annotations from ``replica.*`` spans.  When the
records hold ``site.lock_wait`` spans it appends the per-entity
contention section (:func:`repro.obs.insight.contention_from_records`).
"""

from __future__ import annotations

import json
from typing import Any, Callable


def read_jsonl(
    path: str,
    required: tuple[str, ...],
    *,
    strict: bool = True,
    on_skip: Callable[[str, int, str], None] | None = None,
) -> list[dict[str, Any]]:
    """Parse a JSONL file into its records: JSON objects carrying every
    *required* key.  The one line loop behind span traces
    (:func:`load_trace`) and event timelines
    (:meth:`repro.obs.events.EventLog.from_jsonl`).

    With ``strict=True`` (the default) bad lines raise ``ValueError``.
    With ``strict=False`` a malformed line — a crash-killed producer
    leaves a truncated final line, and post-mortem bundles must stay
    readable anyway — is skipped, invoking *on_skip(path, number,
    reason)* so callers can count a warning instead of dying.
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
            if strict:
                raise ValueError(f"{path}:{number}: {reason}")
            if on_skip is not None:
                on_skip(path, number, reason)
    return records


def load_trace(
    path: str,
    *,
    strict: bool = True,
    on_skip: Callable[[str, int, str], None] | None = None,
) -> list[dict[str, Any]]:
    """Parse a JSONL trace file into its span records (see
    :func:`read_jsonl`)."""
    return read_jsonl(path, ("span", "dur_ns"), strict=strict, on_skip=on_skip)


def aggregate(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-span-name rows: calls, total/self/max nanoseconds, errors.

    Self time of a span is its duration minus the summed durations of
    its *direct* children (resolved within the same pid).
    """
    child_ns: dict[tuple[int, int], int] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None:
            key = (record.get("pid", 0), parent)
            child_ns[key] = child_ns.get(key, 0) + record["dur_ns"]

    rows: dict[str, dict[str, Any]] = {}
    for record in records:
        name = record["span"]
        row = rows.get(name)
        if row is None:
            row = rows[name] = {
                "span": name,
                "calls": 0,
                "total_ns": 0,
                "self_ns": 0,
                "max_ns": 0,
                "errors": 0,
            }
        duration = record["dur_ns"]
        own = duration - child_ns.get(
            (record.get("pid", 0), record.get("id", -1)), 0
        )
        row["calls"] += 1
        row["total_ns"] += duration
        row["self_ns"] += max(0, own)
        row["max_ns"] = max(row["max_ns"], duration)
        if record.get("attrs", {}).get("error"):
            row["errors"] += 1
    return sorted(rows.values(), key=lambda row: -row["self_ns"])


def _ms(nanoseconds: int) -> str:
    return f"{nanoseconds / 1e6:.3f}"


def render_table(
    rows: list[dict[str, Any]], *, limit: int | None = None
) -> str:
    """Fixed-width rendering of :func:`aggregate` rows."""
    shown = rows[:limit] if limit is not None else rows
    headers = ("span", "calls", "total ms", "self ms", "max ms", "errors")
    cells = [
        (
            row["span"],
            str(row["calls"]),
            _ms(row["total_ns"]),
            _ms(row["self_ns"]),
            _ms(row["max_ns"]),
            str(row["errors"]),
        )
        for row in shown
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells
        else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(row: tuple[str, ...]) -> str:
        first = row[0].ljust(widths[0])
        rest = "  ".join(
            cell.rjust(width) for cell, width in zip(row[1:], widths[1:])
        )
        return f"{first}  {rest}".rstrip()

    lines = [fmt(headers)]
    lines.extend(fmt(row) for row in cells)
    if limit is not None and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more span name(s)")
    return "\n".join(lines)


def summarize(path: str, *, limit: int | None = None) -> str:
    """Load, aggregate and render *path* in one call."""
    return summarize_files([path], limit=limit)


def render_distributed(
    records: list[dict[str, Any]], *, trees: int = 3
) -> str | None:
    """The distributed-trace section for merged *records*: slowest
    transaction trees, the per-stage latency percentile table, and
    election annotations.  ``None`` when no record carries a
    ``trace_id`` (a purely local trace)."""
    from . import distributed

    forest = distributed.trace_trees(records)
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

    stage_rows = distributed.stage_rows(records)
    if stage_rows:
        lines.append("")
        lines.append("per-stage latency (from span attributes):")
        headers = ("stage", "count", "p50 ms", "p90 ms", "p99 ms", "max ms")
        table = [
            (
                row["stage"],
                str(row["count"]),
                _ms(row["p50_ns"]),
                _ms(row["p90_ns"]),
                _ms(row["p99_ns"]),
                _ms(row["max_ns"]),
            )
            for row in stage_rows
        ]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in table))
            for i in range(len(headers))
        ]
        lines.append(
            "  "
            + "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
        )
        for row in table:
            lines.append(
                "  "
                + row[0].ljust(widths[0])
                + "  "
                + "  ".join(
                    cell.rjust(w) for cell, w in zip(row[1:], widths[1:])
                )
            )

    annotations = [
        record
        for record in records
        if record["span"] in ("replica.campaign", "replica.elect")
    ]
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


def summarize_files(
    paths: list[str], *, limit: int | None = None, trees: int = 3
) -> str:
    """Merge one trace file per process, aggregate, and render — with
    the distributed section appended when the trace carries
    cross-process records, and the contention section when it holds
    ``site.lock_wait`` spans."""
    from . import distributed, insight

    skipped: list[str] = []
    records = distributed.merge_traces(
        paths, on_skip=lambda p, n, why: skipped.append(f"{p}:{n}: {why}")
    )
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
    output = header + "\n\n" + render_table(rows, limit=limit)
    section = render_distributed(records, trees=trees)
    if section is not None:
        output += "\n\n" + section
    if any(record["span"] == insight.LOCK_WAIT_SPAN for record in records):
        output += "\n\n" + insight.render_contention(insight.contention_from_records(records))
    return output
