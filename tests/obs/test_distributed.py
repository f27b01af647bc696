"""Trace-context propagation, the wire observer, and the collector."""

from repro.obs import trace
from repro.obs.distributed import (
    STAGES,
    WireObserver,
    child_span,
    context_of,
    extract,
    remote_span,
    txn_span,
)
from repro.obs.events import EventLog
from repro.obs.metrics import REGISTRY
from repro.obs.report import TraceTree, merge_traces, stage_rows, trace_trees


class TestContext:
    def test_roundtrip_through_a_message(self, tmp_path):
        trace.start_tracing(str(tmp_path / "t.jsonl"))
        with txn_span("T1") as root:
            context = context_of(root)
            assert context is not None
            assert context["id"] == root.trace_id
            assert context["span"] == root.span_id
            assert context["pid"] == trace.tracer_pid()
            message = {"type": "lock", "id": 1, "trace": context}
            assert extract(message) == context

    def test_null_while_tracing_is_off(self):
        span = txn_span("T1")
        assert not span
        assert context_of(span) is None

    def test_extract_tolerates_absent_and_malformed(self):
        assert extract({"type": "lock", "id": 1}) is None
        assert extract({"trace": "nope"}) is None
        assert extract({"trace": {"id": "only-an-id"}}) is None

    def test_remote_span_links_across_the_wire(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.start_tracing(str(path))
        with txn_span("T1") as root:
            context = context_of(root)
            with remote_span("site.lock", context) as child:
                assert child.trace_id == root.trace_id
        trace.stop_tracing()
        records = {r["span"]: r for r in merge_traces([path])}
        assert records["site.lock"]["parent"] == records["txn.run"]["id"]
        assert records["site.lock"]["trace_id"] == records["txn.run"]["trace_id"]

    def test_remote_span_tolerates_bad_contexts(self, tmp_path):
        trace.start_tracing(str(tmp_path / "t.jsonl"))
        assert not remote_span("x", None)
        assert not remote_span("x", {"id": "t", "span": "NaN", "pid": "?"})
        assert not remote_span("x", {"id": "t"})

    def test_child_span_of_falsy_parent_is_null(self):
        assert not child_span("txn.step", None)
        assert not child_span("txn.step", trace.NULL_SPAN)


class TestWireObserver:
    def test_inactive_by_default(self):
        wire = WireObserver()
        assert not wire.active
        wire.enable_metrics()
        assert wire.active
        wire.disable_metrics()
        assert not wire.active

    def test_event_log_activates_observer(self):
        wire = WireObserver()
        log = EventLog()
        wire.attach(log)
        assert wire.active and not wire.stamping
        wire.sent({"type": "lock", "id": 1, "txn": "T1"}, 42, 0, site=1)
        wire.received({"type": "reply", "id": 1}, 24, site=1)
        wire.detach()
        assert not wire.active
        assert [(event.kind, event.detail) for event in log] == [
            ("send", "lock 42B"),
            ("recv", "reply 24B"),
        ]

    def test_stamp_copies_and_timestamps(self):
        wire = WireObserver()
        message = {"type": "lock", "id": 1}
        stamped = wire.stamp(message)
        assert "wire" not in message
        assert isinstance(stamped["wire"]["send_ns"], int)

    def test_send_receive_feed_stage_metrics(self):
        wire = WireObserver()
        wire.enable_metrics()
        message = wire.stamp({"type": "lock", "id": 1, "txn": "T1"})
        wire.sent(message, 64, 1500, 1)
        wire.received(message, 64, 1)
        assert isinstance(message["wire"]["recv_ns"], int)
        histogram = REGISTRY.get("repro_cluster_latency_ns").to_dict()
        series = histogram["series"]
        assert any('stage="encode"' in key for key in series)
        assert any('stage="transport"' in key for key in series)
        messages = REGISTRY.get("repro_cluster_messages_total").to_dict()
        bytes_total = REGISTRY.get("repro_cluster_bytes_total").to_dict()
        assert sum(messages["series"].values()) == 2
        assert sum(bytes_total["series"].values()) == 128

    def test_wire_events_carry_kind_bytes_and_clock(self):
        class FakeClock:
            now = 42

        wire = WireObserver()
        log = EventLog()
        wire.attach(log, clock=FakeClock())
        message = wire.stamp({"type": "lock", "id": 1, "txn": "T1"})
        wire.sent(message, 64, 1000, 2)
        wire.received(message, 64, 2)
        wire.detach()
        kinds = [event.kind for event in log]
        assert kinds == ["send", "recv"]
        for event in log:
            assert event.site == 2
            assert "lock 64B" in event.detail
            assert "clock=42" in event.detail


def _record(span, span_id, *, parent=None, pid=100, parent_pid=None,
            trace_id="T1#100.1", dur=1000, attrs=None):
    record = {
        "span": span,
        "id": span_id,
        "pid": pid,
        "start_ns": span_id * 10,
        "dur_ns": dur,
        "trace_id": trace_id,
    }
    if parent is not None:
        record["parent"] = parent
        if parent_pid is not None and parent_pid != pid:
            record["parent_pid"] = parent_pid
    if attrs:
        record["attrs"] = attrs
    return record


class TestCollector:
    def test_merge_traces_concatenates_files(self, tmp_path):
        import json

        for name, pid in (("a.jsonl", 1), ("b.jsonl", 2)):
            (tmp_path / name).write_text(
                json.dumps(_record("s", 1, pid=pid)) + "\n"
            )
        records = merge_traces(
            [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        )
        assert {r["pid"] for r in records} == {1, 2}

    def test_trees_link_remote_parents(self):
        records = [
            _record("txn.run", 1, pid=100, attrs={"txn": "T1"}, dur=9000),
            _record("txn.step", 2, parent=1, pid=100),
            _record("site.lock", 7, parent=2, pid=200, parent_pid=100),
        ]
        (tree,) = trace_trees(records)
        assert tree.connected
        assert tree.name == "T1"
        assert tree.duration_ns == 9000
        (step,) = tree.children_of(tree.root)
        assert [kid["span"] for kid in tree.children_of(step)] == ["site.lock"]

    def test_orphans_surface_as_extra_roots(self):
        records = [
            _record("txn.run", 1, pid=100),
            _record("site.lock", 7, parent=99, pid=200, parent_pid=300),
        ]
        (tree,) = trace_trees(records)
        assert not tree.connected
        assert len(tree.roots) == 2

    def test_trees_sort_slowest_first_and_skip_local_spans(self):
        records = [
            _record("txn.run", 1, trace_id="a", dur=1000),
            _record("txn.run", 2, trace_id="b", dur=5000),
            {"span": "local", "id": 3, "pid": 100, "start_ns": 0, "dur_ns": 9},
        ]
        forest = trace_trees(records)
        assert [tree.trace_id for tree in forest] == ["b", "a"]

    def test_stage_rows(self):
        records = [
            _record(
                "site.lock",
                i,
                attrs={"server_queue_ns": 100 * i, "transport_ns": 10},
            )
            for i in range(1, 11)
        ]
        rows = {row["stage"]: row for row in stage_rows(records)}
        assert set(rows) <= set(STAGES)
        assert rows["server_queue"]["count"] == 10
        assert rows["server_queue"]["max_ns"] == 1000
        assert rows["server_queue"]["p50_ns"] == 500
        assert rows["transport"]["p99_ns"] == 10

    def test_render_is_indented_and_bounded(self):
        records = [
            _record("txn.run", 1, attrs={"txn": "T1"}),
            _record("txn.step", 2, parent=1, attrs={"entity": "x"}),
        ]
        (tree,) = trace_trees(records)
        lines = tree.render(max_spans=1)
        assert lines[0].startswith("txn.run")
        assert any("more span" in line for line in lines)
        full = tree.render()
        assert full[1].startswith("  txn.step")
        assert "entity=x" in full[1]


    def test_empty_tree(self):
        tree = TraceTree("t", [])
        assert tree.duration_ns == 0
        assert tree.root is None
