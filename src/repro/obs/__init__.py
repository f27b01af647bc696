"""Observability: spans, metrics and event timelines for the stack.

Three complementary instruments, all stdlib-only and all near-free when
switched off:

* :mod:`~repro.obs.trace` — nested context-manager spans with
  monotonic timing and a JSONL exporter; the safety deciders, the
  graph algorithms and the admission service annotate their phases so
  ``repro ... --trace FILE`` shows where a decision's time went (and
  ``repro trace-report FILE`` aggregates it into a top-spans table);
* :mod:`~repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms with Prometheus-text and JSON dumps
  (``--metrics``, and the ``METRICS`` command of ``repro serve``);
* :mod:`~repro.obs.events` — an append-only, logically timestamped
  event log (optionally bounded to its newest entries) the simulator
  and the cluster runtime fill with lock grants/blocks/releases, step
  executions, messages and deadlock detections, so a non-serializable
  run can be replayed as a readable timeline.

:mod:`~repro.obs.distributed` carries all three across process
boundaries for the cluster runtime: trace contexts ride inside
protocol messages, and transports stamp frames for the per-stage
wire-latency histograms.

:mod:`~repro.obs.insight` is what a live cluster keeps beyond that:
per-entity contention tallies, the ``status`` introspection plane with
global wait-for stitching, and the post-mortem bundle format (a run's
bounded event log, dumped when it ends badly).

:mod:`~repro.obs.report` is the one offline reader of what a run left
on disk: ``repro trace-report`` merges per-process trace files into
the top-spans table, one causal tree per transaction and the
contention replay of lock-wait spans; ``repro postmortem`` renders a
bundle.  :mod:`~repro.obs.log` funnels the CLI's human-readable output
through one verbosity-aware helper (with a JSON-lines formatter option).
"""

from .distributed import LATENCY_BUCKETS, STAGES, WIRE, WireObserver, new_trace_id, remote_span
from .events import EventLog, SimEvent
from .insight import (
    ClusterStatus,
    ContentionTally,
    deadlock_cycles,
    dump_postmortem,
    load_postmortem,
    probe_site,
    probe_sites,
    wait_for_graph,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from .report import (
    TraceTree,
    aggregate,
    contention_from_records,
    merge_traces,
    render_contention,
    render_distributed,
    render_postmortem,
    render_table,
    stage_rows,
    summarize_files,
    trace_trees,
)
from .trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    current_span,
    detached_span,
    span,
    start_tracing,
    stop_tracing,
    trace_path,
    tracer_pid,
    tracing_enabled,
)

__all__ = [
    "ClusterStatus",
    "ContentionTally",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "REGISTRY",
    "STAGES",
    "SimEvent",
    "Span",
    "TraceTree",
    "Tracer",
    "WIRE",
    "WireObserver",
    "aggregate",
    "contention_from_records",
    "current_span",
    "deadlock_cycles",
    "detached_span",
    "dump_postmortem",
    "get_registry",
    "load_postmortem",
    "merge_traces",
    "new_trace_id",
    "probe_site",
    "probe_sites",
    "remote_span",
    "render_contention",
    "render_distributed",
    "render_postmortem",
    "render_table",
    "span",
    "wait_for_graph",
    "stage_rows",
    "start_tracing",
    "stop_tracing",
    "summarize_files",
    "trace_path",
    "trace_trees",
    "tracer_pid",
    "tracing_enabled",
]
