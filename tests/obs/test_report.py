"""The offline reader: self time, per-process parent resolution,
lenient trace loading, the contention section, and the exact text of
``trace-report`` and ``postmortem``."""

import json

import pytest

from repro.obs.events import EventLog
from repro.obs.insight import dump_postmortem
from repro.obs.report import (
    aggregate,
    merge_traces,
    render_postmortem,
    render_table,
    summarize_files,
)


def write_trace(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )
    return str(path)


class TestAggregate:
    def test_self_time_subtracts_direct_children(self):
        rows = aggregate(
            [
                {"span": "child", "id": 2, "pid": 1, "parent": 1,
                 "start_ns": 10, "dur_ns": 30},
                {"span": "parent", "id": 1, "pid": 1,
                 "start_ns": 0, "dur_ns": 100},
            ]
        )
        by_name = {row["span"]: row for row in rows}
        assert by_name["parent"]["total_ns"] == 100
        assert by_name["parent"]["self_ns"] == 70
        assert by_name["child"]["self_ns"] == 30

    def test_parent_ids_resolved_per_pid(self):
        # Two processes both use span id 1; the child in pid 2 must not
        # be subtracted from the pid-1 parent.
        rows = aggregate(
            [
                {"span": "parent", "id": 1, "pid": 1,
                 "start_ns": 0, "dur_ns": 100},
                {"span": "child", "id": 2, "pid": 2, "parent": 1,
                 "start_ns": 0, "dur_ns": 40},
                {"span": "parent", "id": 1, "pid": 2,
                 "start_ns": 0, "dur_ns": 50},
            ]
        )
        by_name = {row["span"]: row for row in rows}
        assert by_name["parent"]["calls"] == 2
        assert by_name["parent"]["total_ns"] == 150
        assert by_name["parent"]["self_ns"] == 100 + 10

    def test_sorted_by_self_time_and_errors_counted(self):
        rows = aggregate(
            [
                {"span": "slow", "id": 1, "pid": 1,
                 "start_ns": 0, "dur_ns": 100},
                {"span": "fast", "id": 2, "pid": 1, "start_ns": 0,
                 "dur_ns": 10, "attrs": {"error": True}},
            ]
        )
        assert [row["span"] for row in rows] == ["slow", "fast"]
        assert rows[1]["errors"] == 1

    def test_remote_child_charged_to_its_parent_process(self):
        # Span id 5 exists in both processes; the pid-2 child names its
        # parent's process, so it is subtracted from pid 1's span only.
        rows = aggregate(
            [
                {"span": "txn.step", "id": 5, "pid": 1,
                 "start_ns": 0, "dur_ns": 100},
                {"span": "site.busy", "id": 5, "pid": 2,
                 "start_ns": 0, "dur_ns": 1000},
                {"span": "site.lock", "id": 6, "pid": 2, "parent": 5,
                 "parent_pid": 1, "start_ns": 0, "dur_ns": 80},
            ]
        )
        by_name = {row["span"]: row for row in rows}
        assert by_name["site.busy"]["self_ns"] == 1000
        assert by_name["txn.step"]["self_ns"] == 20
        assert by_name["site.lock"]["self_ns"] == 80

    def test_self_time_clamped_at_zero(self):
        # Clock skew can make children sum past the parent.
        rows = aggregate(
            [
                {"span": "parent", "id": 1, "pid": 1,
                 "start_ns": 0, "dur_ns": 10},
                {"span": "child", "id": 2, "pid": 1, "parent": 1,
                 "start_ns": 0, "dur_ns": 25},
            ]
        )
        by_name = {row["span"]: row for row in rows}
        assert by_name["parent"]["self_ns"] == 0


class TestLoadTrace:
    def test_bad_json_raises_with_location(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match=r"t\.jsonl:1: not a JSON record"):
            summarize_files([str(path)])

    def test_missing_fields_raise(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(ValueError, match="span/dur_ns"):
            summarize_files([str(path)])

    def test_blank_lines_skipped(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl",
            [{"span": "a", "id": 1, "pid": 1, "start_ns": 0, "dur_ns": 5}],
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        skips = []
        assert len(merge_traces([path], on_skip=lambda *skip: skips.append(skip))) == 1
        assert skips == []


class TestRendering:
    def test_table_and_summary(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl",
            [
                {"span": "safety.decide", "id": 1, "pid": 1,
                 "start_ns": 0, "dur_ns": 2_000_000},
                {"span": "safety.d_graph", "id": 2, "pid": 1, "parent": 1,
                 "start_ns": 0, "dur_ns": 500_000},
            ],
        )
        text = summarize_files([path])
        assert "2 spans, 2 distinct names, 1 process(es)" in text
        header = text.splitlines()[2]
        for column in ("span", "calls", "total ms", "self ms", "max ms"):
            assert column in header
        assert "safety.decide" in text

    def test_limit_reports_whats_hidden(self):
        rows = aggregate(
            [
                {"span": f"s{i}", "id": i, "pid": 1,
                 "start_ns": 0, "dur_ns": 100 - i}
                for i in range(1, 5)
            ]
        )
        text = render_table(rows, limit=2)
        assert "... 2 more span name(s)" in text

    def test_empty_rows_render_headers_only(self):
        assert render_table([]).startswith("span")


class TestLenientLoading:
    """Truncated / malformed JSONL hardening: bad lines are skipped with
    a counted warning; a file of nothing but bad lines is rejected."""

    def test_lenient_load_skips_and_reports(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"span": "ok", "id": 1, "pid": 1,
                        "start_ns": 0, "dur_ns": 10}) + "\n"
            + "{truncated mid-wri\n"
            + json.dumps({"not": "a span"}) + "\n"
            + json.dumps({"span": "ok", "id": 2, "pid": 1,
                          "start_ns": 0, "dur_ns": 20}) + "\n"
        )
        skips = []
        records = merge_traces(
            [str(path)], on_skip=lambda p, n, why: skips.append((n, why))
        )
        assert len(records) == 2
        assert [number for number, _ in skips] == [2, 3]

    def test_summarize_counts_skipped_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"span": "ok", "id": 1, "pid": 1,
                        "start_ns": 0, "dur_ns": 10}) + "\n"
            + "{truncated"
        )
        text = summarize_files([str(path)])
        assert "warning: skipped 1 malformed line(s)" in text
        assert "1 spans" in text

    def test_summarize_rejects_file_with_no_valid_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError):
            summarize_files([str(path)])

    def test_merge_traces_is_lenient(self, tmp_path):
        good = tmp_path / "a.jsonl"
        good.write_text(
            json.dumps({"span": "ok", "id": 1, "pid": 1,
                        "start_ns": 0, "dur_ns": 10}) + "\n"
        )
        damaged = tmp_path / "b.jsonl"
        damaged.write_text('{"span": "cut off, no dur\n')
        skips = []
        records = merge_traces(
            [good, damaged],
            on_skip=lambda p, n, why: skips.append((p, n)),
        )
        assert len(records) == 1
        assert len(skips) == 1


def _lock_wait(entity, txn, start_ns, dur_ns, span_id):
    return {
        "span": "site.lock_wait", "id": span_id, "pid": 1,
        "start_ns": start_ns, "dur_ns": dur_ns,
        "attrs": {"entity": entity, "txn": txn, "site": 1},
    }


class TestContentionSection:
    def test_trace_with_lock_waits_renders_the_section(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl",
            [
                _lock_wait("x", "T1", 0, 100, 1),
                _lock_wait("x", "T2", 10, 100, 2),
                {"span": "cluster.run", "id": 3, "pid": 1, "start_ns": 0, "dur_ns": 500},
            ],
        )
        text = summarize_files([path])
        assert "contention: 1 contended entit(ies)" in text
        assert text.index("contention:") > text.index("cluster.run")

    def test_trace_without_lock_waits_has_no_section(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl",
            [{"span": "cluster.run", "id": 1, "pid": 1, "start_ns": 0, "dur_ns": 500}],
        )
        assert "contention" not in summarize_files([path])

    def test_skip_warning_survives_alongside_the_section(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_lock_wait("x", "T1", 0, 100, 1)) + "\n{truncated")
        text = summarize_files([str(path)])
        assert "warning: skipped 1 malformed line(s)" in text
        assert "contention: 1 contended entit(ies)" in text


# ----------------------------------------------------------------------
# Golden renderings: the exact text of ``trace-report`` and
# ``postmortem`` on fixed single-process input.
# ----------------------------------------------------------------------
_PID = 4242
_T1 = "T1#4242.1"
_T2 = "T2#4242.2"


def _rec(span, span_id, start, dur, *, parent=None, trace_id=None, **attrs):
    record = {"span": span, "id": span_id, "pid": _PID,
              "start_ns": start, "dur_ns": dur}
    if parent is not None:
        record["parent"] = parent
    if trace_id is not None:
        record["trace_id"] = trace_id
    if attrs:
        record["attrs"] = attrs
    return record


GOLDEN_RECORDS = [
    _rec("txn.run", 1, 0, 5_000_000, trace_id=_T1, txn="T1"),
    _rec("txn.step", 2, 100_000, 2_000_000, parent=1, trace_id=_T1,
         entity="x", site=1, transport_ns=150_000, encode_ns=20_000),
    _rec("site.lock", 3, 200_000, 1_500_000, parent=2, trace_id=_T1,
         entity="x", site=1, status="granted", server_queue_ns=30_000,
         lock_wait_ns=1_000_000),
    _rec("site.lock_wait", 4, 300_000, 1_000_000, parent=3, trace_id=_T1,
         entity="x", txn="T1", site=1),
    _rec("txn.run", 5, 50_000, 130_000_000, trace_id=_T2, txn="T2"),
    _rec("txn.step", 6, 60_000, 125_000_000, parent=5, trace_id=_T2,
         entity="x", site=1, transport_ns=123_456_789, encode_ns=25_000),
    _rec("site.lock", 7, 400_000, 1_700_000, parent=6, trace_id=_T2,
         entity="x", site=1, status="granted", server_queue_ns=40_000,
         lock_wait_ns=1_200_000, hold_ns=900_000),
    _rec("site.lock_wait", 8, 400_000, 1_200_000, parent=7, trace_id=_T2,
         entity="x", txn="T2", site=1),
    _rec("site.lock_wait", 9, 500_000, 12_000_000, entity="x", txn="T3",
         site=1, result="timeout"),
    _rec("site.lock_wait", 10, 2_000_000, 200_000, entity="y", txn="T2",
         site=2),
    _rec("safety.decide", 11, 0, 700_000),
    _rec("safety.d_graph", 12, 10_000, 300_000, parent=11, error=True),
    _rec("replica.elect", 13, 0, 450_000, address=1001, epoch=2, won=True),
]


def _golden_trace(tmp_path):
    path = tmp_path / "golden.jsonl"
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in GOLDEN_RECORDS)
        + '{"span": "cut off, no duration"}\n'
    )
    return str(path)


GOLDEN_SUMMARY = """\
trace <trace>: 13 spans, 7 distinct names, 1 process(es)
warning: skipped 1 malformed line(s): <trace>:14: record lacks span/dur_ns fields

span            calls  total ms  self ms   max ms  errors
txn.step            2   127.000  123.800  125.000       0
site.lock_wait      4    14.400   14.400   12.000       0
txn.run             2   135.000    8.000  130.000       0
site.lock           2     3.200    1.000    1.700       0
replica.elect       1     0.450    0.450    0.450       0
safety.decide       1     0.700    0.400    0.700       0
safety.d_graph      1     0.300    0.300    0.300       1

distributed traces: 2 transaction(s), 8 spans, 2 fully connected

-- T2  (T2#4242.2, 130.000 ms) --
txn.run  130.000 ms  [pid 4242]
  txn.step  125.000 ms  [pid 4242]  entity=x site=1
    site.lock  1.700 ms  [pid 4242]  entity=x site=1 status=granted
      site.lock_wait  1.200 ms  [pid 4242]  entity=x site=1

-- T1  (T1#4242.1, 5.000 ms) --
txn.run  5.000 ms  [pid 4242]
  txn.step  2.000 ms  [pid 4242]  entity=x site=1
    site.lock  1.500 ms  [pid 4242]  entity=x site=1 status=granted
      site.lock_wait  1.000 ms  [pid 4242]  entity=x site=1

per-stage latency (from span attributes):
  stage         count  p50 ms   p90 ms   p99 ms   max ms
  encode            2   0.020    0.025    0.025    0.025
  transport         2   0.150  123.457  123.457  123.457
  server_queue      2   0.030    0.040    0.040    0.040
  lock_wait         2   1.000    1.200    1.200    1.200
  hold              1   0.900    0.900    0.900    0.900

elections and failovers:
  replica.elect  0.450 ms  address=1001 epoch=2 won=True

contention: 2 contended entit(ies)
  entity  waits  denied  p50 ms  p95 ms  max ms  depth  flags
  x           3       1   1.200  12.000  12.000      3  convoy starved:T3
  y           1       0   0.200   0.200   0.200      1"""

GOLDEN_SUMMARY_LIMIT_3 = """\
trace <trace>: 13 spans, 7 distinct names, 1 process(es)
warning: skipped 1 malformed line(s): <trace>:14: record lacks span/dur_ns fields

span            calls  total ms  self ms   max ms  errors
txn.step            2   127.000  123.800  125.000       0
site.lock_wait      4    14.400   14.400   12.000       0
txn.run             2   135.000    8.000  130.000       0
... 4 more span name(s)

distributed traces: 2 transaction(s), 8 spans, 2 fully connected

-- T2  (T2#4242.2, 130.000 ms) --
txn.run  130.000 ms  [pid 4242]
  txn.step  125.000 ms  [pid 4242]  entity=x site=1
    site.lock  1.700 ms  [pid 4242]  entity=x site=1 status=granted
      site.lock_wait  1.200 ms  [pid 4242]  entity=x site=1

-- T1  (T1#4242.1, 5.000 ms) --
txn.run  5.000 ms  [pid 4242]
  txn.step  2.000 ms  [pid 4242]  entity=x site=1
    site.lock  1.500 ms  [pid 4242]  entity=x site=1 status=granted
      site.lock_wait  1.000 ms  [pid 4242]  entity=x site=1

per-stage latency (from span attributes):
  stage         count  p50 ms   p90 ms   p99 ms   max ms
  encode            2   0.020    0.025    0.025    0.025
  transport         2   0.150  123.457  123.457  123.457
  server_queue      2   0.030    0.040    0.040    0.040
  lock_wait         2   1.000    1.200    1.200    1.200
  hold              1   0.900    0.900    0.900    0.900

elections and failovers:
  replica.elect  0.450 ms  address=1001 epoch=2 won=True

contention: 2 contended entit(ies)
  entity  waits  denied  p50 ms  p95 ms  max ms  depth  flags
  x           3       1   1.200  12.000  12.000      3  convoy starved:T3
  y           1       0   0.200   0.200   0.200      1"""


class TestGoldenRendering:
    def test_summarize_files(self, tmp_path):
        path = _golden_trace(tmp_path)
        text = summarize_files([path]).replace(path, "<trace>")
        assert text == GOLDEN_SUMMARY

    def test_summarize_files_with_limit(self, tmp_path):
        path = _golden_trace(tmp_path)
        text = summarize_files([path], limit=3).replace(path, "<trace>")
        assert text == GOLDEN_SUMMARY_LIMIT_3


class _LiteralReport:
    """The one method ``dump_postmortem`` asks of a run report."""

    def to_dict(self):
        return {
            "mode": "runtime-guarded",
            "transactions": 4,
            "committed": 2,
            "serializable": True,
            "audit_complete": False,
            "unreachable_sites": [2],
            "outcomes": [
                {"name": "T1", "outcome": "committed"},
                {"name": "T2", "outcome": "aborted", "detail": "deadlock victim"},
                {"name": "T3", "outcome": "failed"},
                {"name": "T4", "outcome": "committed"},
            ],
            "contention": [
                {"entity": "x", "grants": 3, "waits": 2, "denied": 1,
                 "wait_ms_p50": 0.5, "wait_ms_p95": 2.25, "wait_ms_max": 2.25,
                 "queue_depth_max": 2, "queue_depth_p95": 2.0},
                {"entity": "y", "grants": 1, "waits": 0, "denied": 0,
                 "wait_ms_p50": None, "wait_ms_p95": None, "wait_ms_max": None,
                 "queue_depth_max": 0, "queue_depth_p95": None},
            ],
        }


def _golden_bundle(tmp_path):
    events = EventLog(capacity=6)
    events.emit("grant", transaction="T1", entity="x", site=1)
    events.emit("block", transaction="T2", entity="x", site=1)
    events.emit("send", transaction="T2", site=1, detail="lock 96B")
    events.emit("release", transaction="T1", entity="x", site=1)
    events.emit("grant", transaction="T2", entity="x", site=1)
    events.emit("crash", site=2)
    events.emit("abort", transaction="T2", detail="deadlock victim")
    events.emit("complete", transaction="T1")
    trace = tmp_path / "site-1.jsonl"
    trace.write_text(
        "".join(json.dumps(record) + "\n" for record in GOLDEN_RECORDS[7:10])
        + '{"span": "cut off, no duration"}\n'
    )
    config = {
        "seed": 7,
        "transport": "memory",
        "rounds": 1,
        "replicas": None,
        "fault_plan": {"site_crashes": [{"site": 2, "at": 5}]},
        "latency": {"cross": 3},
    }
    return dump_postmortem(
        tmp_path / "bundle",
        report=_LiteralReport(),
        event_log=events,
        trace_paths=[str(trace)],
        reason="audit-incomplete",
        config=config,
    )


GOLDEN_POSTMORTEM = """\
post-mortem bundle <bundle>: reason=audit-incomplete
config: rounds=1 seed=7 transport=memory
fault plan: {"site_crashes": [{"at": 5, "site": 2}]}
run: mode=runtime-guarded transactions=4 committed=2 serializable=True audit_complete=False
unreachable sites: [2]
  T2: aborted (deadlock victim)
  T3: failed
contention: 2 contended entit(ies)
  entity  waits  denied  p50 ms  p95 ms  max ms  depth  flags
  x           2       1   0.500   2.250   2.250      2
  y           0       0       -       -       -      0
timeline: 6 event(s) retained, 2 older dropped
  [   3] release  T1 x s1
  [   4] grant    T2 x s1
  [   5] crash    s2
  [   6] abort    T2  (deadlock victim)
  [   7] complete T1
traces: 3 span(s) from 1 file(s), skipped 1 bad line(s)
contention: 2 contended entit(ies)
  entity  waits  denied  p50 ms  p95 ms  max ms  depth  flags
  x           2       1   1.200  12.000  12.000      2  starved:T3
  y           1       0   0.200   0.200   0.200      1"""


class TestGoldenPostmortem:
    def test_render_postmortem(self, tmp_path):
        bundle = _golden_bundle(tmp_path)
        text = render_postmortem(bundle, tail=5).replace(bundle, "<bundle>")
        assert text == GOLDEN_POSTMORTEM
