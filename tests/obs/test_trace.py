"""Span tracing: nesting, the disabled fast path, error capture, and
the exact decider's span attributes."""

import json
import os

import pytest

from repro.obs import trace
from repro.obs.trace import NULL_SPAN, span


def read_records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestDisabledPath:
    def test_span_returns_the_null_singleton(self):
        assert not trace.tracing_enabled()
        assert span("anything") is NULL_SPAN
        assert trace.current_span() is NULL_SPAN

    def test_null_span_is_falsy_noop(self):
        with span("x") as sp:
            assert not sp
            assert sp.set(a=1) is sp  # swallowed, chainable

    def test_exceptions_pass_through_null_span(self):
        with pytest.raises(RuntimeError):
            with span("x"):
                raise RuntimeError("boom")


class TestRecording:
    def test_nesting_and_parent_ids(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        trace.start_tracing(path)
        with span("outer") as outer:
            assert outer
            assert trace.current_span() is outer
            with span("inner") as inner:
                inner.set(answer=42)
        trace.stop_tracing()
        records = {r["span"]: r for r in read_records(path)}
        assert set(records) == {"outer", "inner"}
        # Children finish (and are written) before their parents.
        assert records["inner"]["parent"] == records["outer"]["id"]
        assert records["inner"]["attrs"]["answer"] == 42
        assert records["outer"]["dur_ns"] >= records["inner"]["dur_ns"]
        assert records["outer"]["pid"] == os.getpid()

    def test_exception_records_error_and_timing(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        trace.start_tracing(path)
        with pytest.raises(ValueError):
            with span("failing") as sp:
                sp.set(stage="before")
                raise ValueError("nope")
        trace.stop_tracing()
        (record,) = read_records(path)
        assert record["attrs"]["error"] is True
        assert record["attrs"]["error_type"] == "ValueError"
        assert record["attrs"]["stage"] == "before"
        assert record["dur_ns"] >= 0

    def test_attrs_coerced_to_json_safe(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        trace.start_tracing(path)
        with span("attrs") as sp:
            sp.set(names=("a", "b"), obj={1, 2, 3}, flag=True)
        trace.stop_tracing()
        (record,) = read_records(path)
        assert record["attrs"]["names"] == ["a", "b"]
        assert isinstance(record["attrs"]["obj"], str)
        assert record["attrs"]["flag"] is True

    def test_start_stop_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert trace.trace_path() is None
        trace.start_tracing(path)
        assert trace.tracing_enabled()
        assert trace.trace_path() == path
        assert trace.stop_tracing() == path
        assert not trace.tracing_enabled()
        assert trace.stop_tracing() is None


class TestExactDeciderSpans:
    """The exact rung's spans carry the attributes docs/observability.md
    lists, counted on ``D`` as the graph reference counts them."""

    @pytest.mark.parametrize("figure", ["figure-5", "figure-8"])
    def test_d_graph_and_dominator_attributes(self, tmp_path, figure):
        from repro.core import d_graph, decide_safety_exact
        from repro.core.reduction import reduce_cnf_to_pair
        from repro.graphs import strongly_connected_components
        from repro.workloads import figure_5, figure_8_formula

        if figure == "figure-5":
            first, second = figure_5().pair()
        else:
            artifacts = reduce_cnf_to_pair(figure_8_formula())
            first, second = artifacts.first, artifacts.second
        components = strongly_connected_components(d_graph(first, second))
        path = str(tmp_path / "t.jsonl")
        trace.start_tracing(path)
        verdict = decide_safety_exact(first, second)
        trace.stop_tracing()
        records = {r["span"]: r["attrs"] for r in read_records(path)}
        assert records["safety.d_graph"] == {
            "shared_entities": len(d_graph(first, second)),
            "strongly_connected": False,
        }
        attrs = records["safety.dominators"]
        assert attrs["scc_count"] == len(components)
        assert attrs["scc_max_size"] == max(len(c) for c in components)
        assert attrs["realizable"] is (not verdict.safe)
        assert attrs["dominators_checked"] == (1 if verdict.safe else 23)
