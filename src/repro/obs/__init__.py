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
protocol messages, transports stamp frames for the per-stage
wire-latency histograms, and a collector merges per-process trace
files into one causal tree per transaction.

:mod:`~repro.obs.log` funnels the CLI's human-readable output through
one verbosity-aware helper (with a JSON-lines formatter option), and
:mod:`~repro.obs.report` turns exported traces into summaries.

:mod:`~repro.obs.insight` is the production tier: post-mortem
bundles (a run's bounded event log, dumped when it ends badly), the
``status`` introspection plane with global wait-for stitching, and
per-entity contention analytics.
"""

from .distributed import (
    LATENCY_BUCKETS,
    STAGES,
    TraceTree,
    WIRE,
    WireObserver,
    merge_traces,
    new_trace_id,
    remote_span,
    stage_rows,
    trace_trees,
)
from .events import EventLog, SimEvent
from .insight import (
    ClusterStatus,
    ContentionTally,
    contention_from_records,
    deadlock_cycles,
    dump_postmortem,
    load_postmortem,
    probe_site,
    probe_sites,
    render_contention,
    render_postmortem,
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
    aggregate,
    load_trace,
    render_distributed,
    render_table,
    summarize,
    summarize_files,
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
    "load_trace",
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
    "summarize",
    "summarize_files",
    "trace_path",
    "trace_trees",
    "tracer_pid",
    "tracing_enabled",
]
