"""The insight tier: the post-mortem timeline, contention analytics,
wait-for stitching and post-mortem bundles."""

import json
import pathlib

import pytest

from repro.cluster import run_cluster_sync
from repro.core.entity import DistributedDatabase
from repro.core.schedule import TransactionSystem
from repro.core.step import lock, unlock, update
from repro.core.transaction import Transaction
from repro.dsl import parse_system
from repro.obs import distributed
from repro.obs.events import EventLog
from repro.obs.insight import (
    POSTMORTEM_EVENTS,
    ClusterStatus,
    ContentionTally,
    deadlock_cycles,
    dump_postmortem,
    load_postmortem,
    wait_for_graph,
)
from repro.obs.report import contention_from_records, render_contention, render_postmortem


def chain_tx(name, database, entities):
    steps = []
    for entity in entities:
        steps.append(lock(entity))
        steps.append(update(entity))
    for entity in entities:
        steps.append(unlock(entity))
    order = [(steps[i], steps[i + 1]) for i in range(len(steps) - 1)]
    return Transaction(name, database, steps, order)


@pytest.fixture
def contended_system():
    database = DistributedDatabase({"x": 1, "y": 2})
    return TransactionSystem(
        [
            chain_tx("T1", database, ["x", "y"]),
            chain_tx("T2", database, ["y", "x"]),
        ]
    )


@pytest.fixture
def fig3_like_system():
    path = pathlib.Path(__file__).parents[2] / "examples/systems/fig3_like.sys"
    return parse_system(path.read_text())


class TestRecorderInCluster:
    """A post-mortem run records its timeline into a bounded event
    log; a default run records nothing at all."""

    def test_default_run_leaves_wire_idle(self, contended_system, monkeypatch):
        from repro.cluster import runtime

        seen = []
        execute = runtime._execute

        async def observed(workload, topology):
            seen.append(distributed.WIRE.active)
            outcomes = await execute(workload, topology)
            seen.append(distributed.WIRE.active)
            return outcomes

        monkeypatch.setattr(runtime, "_execute", observed)
        seen.append(distributed.WIRE.active)
        report = run_cluster_sync(contended_system, rounds=1, seed=3)
        seen.append(distributed.WIRE.active)
        assert report.committed == report.transactions
        assert seen == [False] * 4

    def test_postmortem_run_fingerprints_match_plain_run(
        self, tmp_path, contended_system
    ):
        armed = run_cluster_sync(
            contended_system, rounds=2, seed=11, postmortem_dir=str(tmp_path / "pm")
        )
        bare = run_cluster_sync(contended_system, rounds=2, seed=11)
        assert armed.outcome_fingerprint == bare.outcome_fingerprint
        assert armed.history_fingerprint == bare.history_fingerprint
        assert armed.committed == bare.committed == bare.transactions

    def test_postmortem_events_are_deterministic_on_memory_transport(
        self, tmp_path, fig3_like_system
    ):
        written = []
        for name in ("first", "second"):
            report = run_cluster_sync(
                fig3_like_system,
                rounds=4,
                seed=7,
                max_retries=0,
                postmortem_dir=str(tmp_path / name),
            )
            written.append((tmp_path / name / "events.jsonl").read_bytes())
        assert report.postmortem == str(tmp_path / "second")
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == POSTMORTEM_EVENTS

    def test_report_carries_contention_ranking(self, contended_system):
        report = run_cluster_sync(contended_system, rounds=3, seed=11)
        assert report.contention, "contended run must rank hot entities"
        row = report.contention[0]
        assert set(row) >= {"entity", "waits", "grants", "wait_ms_p95"}
        assert row["entity"] in ("x", "y")
        # The ranking rides in to_dict but never in the fingerprints.
        assert "contention" in report.to_dict()


class TestContentionTally:
    def test_counts_and_ranking(self):
        tally = ContentionTally()
        tally.granted("x")
        tally.blocked("x", depth=2)
        tally.waited("x", 2_000_000)
        tally.blocked("y", depth=1)
        tally.waited("y", 1_000_000)
        tally.blocked("y", depth=4)
        tally.waited("y", 3_000_000, result="denied")
        rows = tally.rows()
        assert [row["entity"] for row in rows] == ["y", "x"]
        y = rows[0]
        assert y["waits"] == 2
        assert y["denied"] == 1
        assert y["queue_depth_max"] == 4

    def test_merge_accumulates(self):
        a, b = ContentionTally(), ContentionTally()
        a.blocked("x", depth=1)
        a.waited("x", 5)
        b.blocked("x", depth=3)
        b.waited("x", 7)
        a.merge(b)
        (row,) = a.rows()
        assert row["waits"] == 2
        assert row["queue_depth_max"] == 3

    def test_empty_tally_is_falsy(self):
        assert not ContentionTally()


def _span(entity, txn, start, dur, pid=1):
    return {
        "span": "site.lock_wait",
        "start_ns": start,
        "dur_ns": dur,
        "pid": pid,
        "attrs": {"entity": entity, "txn": txn, "site": 1},
    }


class TestContentionFromRecords:
    def test_percentiles_and_convoy(self):
        # Three overlapping waiters on x -> convoy; y is quiet.
        records = [
            _span("x", "T1", 0, 100),
            _span("x", "T2", 10, 100),
            _span("x", "T3", 20, 100),
            _span("y", "T9", 0, 50),
        ]
        rows = contention_from_records(records)
        x = next(row for row in rows if row["entity"] == "x")
        assert x["waits"] == 3
        assert x["queue_depth_max"] == 3
        assert x["convoy"] is True

    def test_starvation_flags_outlier(self):
        records = [_span("x", f"T{i}", i * 1000, 10) for i in range(6)]
        records.append(_span("x", "T99", 0, 10_000))
        (row,) = contention_from_records(records)
        assert "T99" in row["starved"]

    def test_ignores_other_spans(self):
        assert contention_from_records([{"span": "cluster.run", "dur_ns": 5}]) == []

    def test_render_contention_mentions_flags(self):
        records = [
            _span("x", "T1", 0, 100),
            _span("x", "T2", 10, 100),
            _span("x", "T3", 20, 100),
        ]
        text = render_contention(contention_from_records(records))
        assert "convoy" in text
        assert "x" in text

    def test_render_empty(self):
        assert "no lock waits" in render_contention([])


class TestWaitForStitching:
    def test_cross_site_cycle_detected(self):
        statuses = [
            {"site": 1, "wait_for": [["T1", "T2"]]},
            {"site": 2, "wait_for": [["T2", "T1"]]},
        ]
        graph = wait_for_graph(statuses)
        cycles = deadlock_cycles(graph)
        assert cycles, "cross-site cycle must be found"
        assert set(cycles[0]) >= {"T1", "T2"}

    def test_acyclic_graph_is_clean(self):
        statuses = [{"site": 1, "wait_for": [["T1", "T2"], ["T2", "T3"]]}]
        assert deadlock_cycles(wait_for_graph(statuses)) == []

    def test_cluster_status_renders_cycle_and_errors(self):
        status = ClusterStatus(
            [
                {
                    "site": 1,
                    "role": "site",
                    "processed": 9,
                    "committed": 1,
                    "lock_table": [
                        {"entity": "x", "holder": "T1", "waiters": ["T2"]}
                    ],
                    "pending": [
                        {"txn": "T2", "entity": "x", "age": 3, "timer": False}
                    ],
                    "wait_for": [["T2", "T1"]],
                    "contention": [],
                },
                {"site": 2, "wait_for": [["T1", "T2"]]},
                {"site": 3, "error": "connection refused"},
            ]
        )
        text = status.render()
        assert "DEADLOCK" in text
        assert "UNREACHABLE" in text
        assert "lock x: holder=T1" in text
        assert len(status.errors) == 1
        payload = status.to_dict()
        assert set(payload) == {"sites", "wait_for", "cycles"}
        assert payload["cycles"]


class TestPostmortem:
    def test_dump_load_render_roundtrip(self, tmp_path, contended_system):
        event_log = EventLog()
        report = run_cluster_sync(
            contended_system,
            rounds=1,
            seed=5,
            event_log=event_log,
        )
        trace_file = tmp_path / "site.jsonl"
        trace_file.write_text(
            json.dumps(_span("x", "T2", 0, 100)) + "\n" + "{truncated"
        )
        bundle = dump_postmortem(
            tmp_path / "bundle",
            report=report,
            event_log=event_log,
            trace_paths=[str(trace_file)],
            reason="test-reason",
        )
        loaded = load_postmortem(bundle)
        assert loaded["manifest"]["reason"] == "test-reason"
        assert loaded["report"]["transactions"] == report.transactions
        assert list(loaded["events"]) == list(event_log)
        assert len(loaded["trace_records"]) == 1  # damaged line skipped
        text = render_postmortem(bundle, tail=3)
        assert "test-reason" in text
        assert f"timeline: {len(event_log)} event(s) retained" in text
        tail = [str(event) for event in list(event_log)[-3:]]
        assert [line.strip() for line in text.splitlines() if line.startswith("  [")] == tail

    def test_truncated_events_line_skipped(self, tmp_path):
        event_log = EventLog()
        event_log.emit("grant", transaction="T1", entity="x", site=1)
        bundle = dump_postmortem(tmp_path / "b", event_log=event_log, reason="r")
        events = tmp_path / "b" / "events.jsonl"
        events.write_text(events.read_text() + '{"seq": 99, "kin')
        loaded = load_postmortem(bundle)
        assert loaded["events_skipped"] == 1
        assert len(loaded["events"]) == 1
        assert "1 corrupt line(s) skipped" in render_postmortem(bundle)

    def test_bounded_log_reports_dropped_events(self, tmp_path):
        event_log = EventLog(capacity=2)
        for entity in "xyz":
            event_log.emit("grant", transaction="T1", entity=entity)
        bundle = dump_postmortem(tmp_path / "b", event_log=event_log, reason="r")
        assert [event.entity for event in load_postmortem(bundle)["events"]] == ["y", "z"]
        assert "2 event(s) retained, 1 older dropped" in render_postmortem(bundle)

    def test_non_bundle_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a post-mortem bundle"):
            load_postmortem(tmp_path)

    def test_bad_run_writes_bundle_automatically(
        self, tmp_path, contended_system
    ):
        from repro.faults.plan import FaultPlan, SiteCrash

        plan = FaultPlan(site_crashes=(SiteCrash(site=1, at=5),))
        report = run_cluster_sync(
            contended_system,
            rounds=1,
            seed=5,
            fault_plan=plan,
            request_timeout=0.5,
            max_retries=0,
            postmortem_dir=str(tmp_path / "pm"),
        )
        assert not report.audit_complete
        assert report.postmortem == str(tmp_path / "pm")
        loaded = load_postmortem(report.postmortem)
        assert loaded["manifest"]["reason"] in (
            "audit-incomplete",
            "partial-commit",
            "non-serializable",
        )
        # The bundle names the run that produced it.
        config = loaded["manifest"]["config"]
        assert config["seed"] == 5 and config["transport"] == "memory"
        assert config["rounds"] == 1 and config["max_retries"] == 0
        assert config["request_timeout"] == 0.5 and config["replicas"] is None
        assert config["fault_plan"] == plan.to_dict()
        text = render_postmortem(report.postmortem)
        (line,) = [ln for ln in text.splitlines() if ln.startswith("config: ")]
        assert "transport=memory" in line and "seed=5" in line
        assert "fault plan:" in text

    def test_uncommitted_run_writes_bundle(self, tmp_path, fig3_like_system):
        # Serializable with a complete audit, but 7 of 8 transactions
        # exhaust their (zero) retries: the run failed, so it explains
        # itself.
        report = run_cluster_sync(
            fig3_like_system,
            rounds=4,
            seed=7,
            max_retries=0,
            postmortem_dir=str(tmp_path / "pm"),
        )
        assert report.serializable and report.audit_complete
        assert (report.committed, report.transactions) == (1, 8)
        assert report.history_fingerprint.startswith("a3712aab")
        assert report.outcome_fingerprint.startswith("79b9a50c")
        assert report.postmortem == str(tmp_path / "pm")
        loaded = load_postmortem(report.postmortem)
        assert loaded["manifest"]["reason"] == "uncommitted"
        assert "reason=uncommitted" in render_postmortem(report.postmortem)

    def test_clean_run_writes_nothing(self, tmp_path, contended_system):
        report = run_cluster_sync(
            contended_system,
            rounds=1,
            seed=5,
            postmortem_dir=str(tmp_path / "pm"),
        )
        assert report.serializable and report.audit_complete
        assert report.postmortem is None
        assert not (tmp_path / "pm").exists()
