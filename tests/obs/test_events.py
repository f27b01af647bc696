"""The simulator event timeline: validation, round-trips, determinism."""

import pytest

from repro.obs.events import KINDS, EventLog
from repro.sim import RandomDriver, run_once
from repro.workloads import figure_3


class TestEventLog:
    def test_seq_is_the_logical_clock(self):
        log = EventLog()
        first = log.emit("grant", transaction="T1", entity="x", site=1)
        second = log.emit("release", transaction="T1", entity="x", site=1)
        assert (first.seq, second.seq) == (0, 1)
        assert len(log) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog().emit("teleport")

    def test_of_kind_filters_in_order(self):
        log = EventLog()
        log.emit("grant", transaction="T1", entity="x")
        log.emit("block", transaction="T2", entity="x")
        log.emit("grant", transaction="T1", entity="y")
        assert [e.entity for e in log.of_kind("grant")] == ["x", "y"]

    def test_jsonl_roundtrip(self, tmp_path):
        log = EventLog()
        log.emit("grant", transaction="T1", entity="x", site=2)
        log.emit("deadlock", detail="T1 -> T2 -> T1")
        path = tmp_path / "events.jsonl"
        path.write_text(log.to_jsonl())
        rebuilt = EventLog.from_jsonl(str(path))
        assert rebuilt.events == log.events
        assert rebuilt.seq == log.seq

    def test_render_is_line_per_event(self):
        log = EventLog()
        log.emit("grant", transaction="T1", entity="x", site=1)
        text = log.render()
        assert text.splitlines()[0] == "timeline: 1 events"
        assert "grant" in text and "T1" in text

    def test_empty_log_jsonl(self, tmp_path):
        assert EventLog().to_jsonl() == ""
        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert len(EventLog.from_jsonl(str(path))) == 0


class TestBoundedLog:
    def test_wraps_at_capacity(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("step", detail=str(i))
        assert len(log) == 4
        assert log.seq == 10
        assert log.dropped == 6
        assert [event.detail for event in log] == ["6", "7", "8", "9"]
        assert [event.seq for event in log] == [6, 7, 8, 9]

    def test_below_capacity_keeps_everything(self):
        log = EventLog(capacity=8)
        for i in range(3):
            log.emit("step", detail=str(i))
        assert len(log) == 3
        assert log.dropped == 0
        assert [event.detail for event in log] == ["0", "1", "2"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestSimulatorTimeline:
    def run_logged(self, seed):
        log = EventLog()
        result = run_once(figure_3(), RandomDriver(seed), event_log=log)
        return result, log

    def test_deterministic_under_fixed_seed(self):
        _, first = self.run_logged(7)
        _, second = self.run_logged(7)
        assert first.to_jsonl() == second.to_jsonl()
        assert len(first) > 0

    def test_grants_and_releases_are_paired(self):
        result, log = self.run_logged(3)
        if result.completed:
            assert len(log.of_kind("grant")) == len(log.of_kind("release"))

    def test_terminal_event_matches_outcome(self):
        for seed in range(6):
            result, log = self.run_logged(seed)
            last = log.events[-1]
            if result.completed:
                assert last.kind == "complete"
                assert last.detail == (
                    "serializable"
                    if result.serializable
                    else "non-serializable"
                )
            else:
                assert last.kind == "deadlock"
                assert result.deadlocked
        assert result.event_log is log

    def test_every_emitted_kind_is_known(self):
        _, log = self.run_logged(11)
        assert {event.kind for event in log} <= set(KINDS)
