"""trace-report aggregation: self time, per-pid parent resolution,
rendering, and malformed-input rejection."""

import json

import pytest

from repro.obs.report import aggregate, load_trace, render_table, summarize


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
        path.write_text('{"span": "ok", "dur_ns": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            load_trace(str(path))

    def test_missing_fields_raise(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(ValueError, match="span/dur_ns"):
            load_trace(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl",
            [{"span": "a", "id": 1, "pid": 1, "start_ns": 0, "dur_ns": 5}],
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(load_trace(path)) == 1


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
        text = summarize(path)
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
    """Truncated / malformed JSONL hardening: strict mode still raises
    (pinned above), lenient mode skips with a counted warning."""

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
        records = load_trace(
            str(path),
            strict=False,
            on_skip=lambda p, n, why: skips.append((n, why)),
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
        text = summarize(str(path))
        assert "warning: skipped 1 malformed line(s)" in text
        assert "1 spans" in text

    def test_summarize_rejects_file_with_no_valid_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError):
            summarize(str(path))

    def test_merge_traces_is_lenient(self, tmp_path):
        from repro.obs.distributed import merge_traces

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
        text = summarize(path)
        assert "contention: 1 contended entit(ies)" in text
        assert text.index("contention:") > text.index("cluster.run")

    def test_trace_without_lock_waits_has_no_section(self, tmp_path):
        path = write_trace(
            tmp_path / "t.jsonl",
            [{"span": "cluster.run", "id": 1, "pid": 1, "start_ns": 0, "dur_ns": 500}],
        )
        assert "contention" not in summarize(path)

    def test_skip_warning_survives_alongside_the_section(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_lock_wait("x", "T1", 0, 100, 1)) + "\n{truncated")
        text = summarize(str(path))
        assert "warning: skipped 1 malformed line(s)" in text
        assert "contention: 1 contended entit(ies)" in text
