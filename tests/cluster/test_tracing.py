"""Distributed tracing and wire metrics through the cluster runtime."""

import asyncio

import pytest

from repro.cluster import protocol, run_cluster, run_cluster_sync
from repro.cluster.transport import MemoryTransport, TcpTransport, Transport
from repro.faults import FaultPlan, MessageDrop
from repro.obs import trace
from repro.obs.distributed import WIRE
from repro.obs.events import EventLog
from repro.obs.metrics import REGISTRY
from repro.obs.report import merge_traces, summarize_files, trace_trees


@pytest.fixture(autouse=True)
def clean_wire_globals():
    """These tests flip process-global switches; leave them off."""
    yield
    trace.stop_tracing()
    WIRE.disable_metrics()
    WIRE.detach()
    REGISTRY.reset(prefix="repro_cluster_")


class _CapturingTransport(Transport):
    """Any transport, keeping every message either end receives — the
    frame as it crossed the wire, ``wire`` stamp included."""

    def __init__(self, inner: Transport) -> None:
        self._inner = inner
        self.deterministic = inner.deterministic
        self.codec = inner.codec
        self.received: list[dict] = []

    def _tap(self, connection):
        recv = connection.recv

        async def tapped():
            message = await recv()
            if message is not None:
                self.received.append(message)
            return message

        connection.recv = tapped
        return connection

    async def listen(self, site, handler):
        async def tapped_handler(connection):
            await handler(self._tap(connection))

        await self._inner.listen(site, tapped_handler)

    async def connect(self, site):
        return self._tap(await self._inner.connect(site))

    async def sleep(self, ticks):
        await self._inner.sleep(ticks)

    async def close(self):
        await self._inner.close()


def _captured_run(system, transport="memory", codec="json", **kwargs):
    """Run on a capturing *transport*; returns (report, frames)."""

    async def scenario():
        wire_codec = protocol.codec_named(codec)
        if transport == "memory":
            inner = MemoryTransport(wire_codec)
        else:
            inner = TcpTransport(codec=wire_codec)
        capture = _CapturingTransport(inner)
        try:
            report = await run_cluster(
                system,
                transport=capture,
                rounds=1,
                seed=3,
                max_retries=16,
                codec=codec,
                **kwargs,
            )
        finally:
            await capture.close()
        return report, capture.received

    return asyncio.run(scenario())


def _traced_run(system, path, **kwargs):
    trace.start_tracing(str(path))
    try:
        return run_cluster_sync(system, max_retries=16, **kwargs)
    finally:
        trace.stop_tracing()


class TestDistributedTracing:
    def test_one_connected_tree_per_transaction(
        self, deadlock_prone_system, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        report = _traced_run(deadlock_prone_system, path, rounds=2, seed=3)
        assert report.committed == report.transactions == 4
        forest = trace_trees(merge_traces([str(path)]))
        assert len(forest) == 4
        assert all(tree.connected for tree in forest)
        names = {tree.root["span"] for tree in forest}
        assert names == {"txn.run"}

    def test_site_spans_hang_off_coordinator_steps(
        self, deadlock_prone_system, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        _traced_run(deadlock_prone_system, path, rounds=1, seed=3)
        spans = {r["span"] for r in merge_traces([str(path)])}
        assert {"txn.run", "txn.step", "txn.commit", "site.lock"} <= spans

    def test_trace_report_renders_distributed_section(
        self, deadlock_prone_system, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        _traced_run(deadlock_prone_system, path, rounds=1, seed=3)
        text = summarize_files([str(path)])
        assert "distributed traces:" in text
        assert "per-stage latency" in text
        assert "txn.run" in text

    def test_untraced_run_keeps_messages_clean(self, deadlock_prone_system):
        report = run_cluster_sync(
            deadlock_prone_system, rounds=1, seed=3, max_retries=16
        )
        assert report.committed == report.transactions


class TestWireMetrics:
    @pytest.mark.parametrize("batch", [False, True], ids=["nobatch", "batch"])
    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_all_stages_recorded(
        self, deadlock_prone_system, transport, codec, batch
    ):
        report, frames = _captured_run(
            deadlock_prone_system,
            transport,
            request_timeout=30.0 if transport == "tcp" else None,
            wire_metrics=True,
            codec=codec,
            batch=batch,
        )
        # Something reads the stamp, so every frame carries one.
        assert frames
        assert all(isinstance(f["wire"]["send_ns"], int) for f in frames)
        series = REGISTRY.get("repro_cluster_latency_ns").to_dict()["series"]
        stages = {
            stage
            for stage in ("encode", "transport", "server_queue", "lock_wait", "hold")
            if any(f'stage="{stage}"' in key for key in series)
        }
        assert len(stages) == 5
        # Batch frames carry steps exactly when batching is on.
        batched = REGISTRY.get("repro_cluster_batched_steps_total")
        carried = batched.to_dict()["series"] if batched is not None else {}
        sent = sum(n for key, n in carried.items() if 'direction="sent"' in key)
        assert (sent > 0) == batch
        assert report.committed == report.transactions
        assert REGISTRY.get("repro_cluster_messages_total") is not None
        assert REGISTRY.get("repro_cluster_bytes_total") is not None

    def test_default_run_ships_unstamped_frames(self, deadlock_prone_system):
        # No metrics, no tracer, no event log: the observer stays idle
        # and no frame carries a stamp.
        report, frames = _captured_run(deadlock_prone_system)
        assert report.committed == report.transactions
        assert frames
        assert not any("wire" in frame for frame in frames)
        # An event log is told about every frame but reads no stamp, so
        # frames still ship unstamped and its sizes are the frames' as
        # built.
        event_log = EventLog()
        logged, logged_frames = _captured_run(deadlock_prone_system, event_log=event_log)
        assert logged.history_fingerprint == report.history_fingerprint
        assert logged_frames == frames

        def size(event):
            return int(event.detail.split()[1].rstrip("B"))

        received = event_log.of_kind("recv")
        assert [size(event) for event in received] == [
            len(protocol.encode(frame)) for frame in frames
        ]
        assert [event.detail.split()[0] for event in received] == [
            frame["type"] for frame in frames
        ]
        sent = sorted(size(event) for event in event_log.of_kind("send"))
        assert sent == sorted(size(event) for event in received)

    def test_back_to_back_runs_do_not_accumulate(self, deadlock_prone_system):
        def total_messages():
            metric = REGISTRY.get("repro_cluster_messages_total")
            return sum(metric.to_dict()["series"].values())

        counts = []
        for _ in range(2):
            run_cluster_sync(
                deadlock_prone_system,
                rounds=1,
                seed=3,
                max_retries=16,
                wire_metrics=True,
            )
            counts.append(total_messages())
        assert counts[0] == counts[1]

    def test_drop_counter_survives_a_second_run(self, deadlock_prone_system):
        # The per-run registry reset must not orphan the drop counter:
        # every run's drops land in the registry, not only the first's.
        plan = FaultPlan(message_drops=(MessageDrop(site=1, at=2, until=8),))
        for _ in range(2):
            report = run_cluster_sync(
                deadlock_prone_system,
                rounds=2,
                seed=3,
                max_retries=16,
                fault_plan=plan,
                request_timeout=0.2,
            )
            assert report.dropped > 0
            metric = REGISTRY.get("repro_cluster_messages_dropped_total")
            assert metric is not None
            assert metric.value == report.dropped

    def test_disabled_run_creates_no_wire_metrics(self, deadlock_prone_system):
        run_cluster_sync(
            deadlock_prone_system, rounds=1, seed=3, max_retries=16
        )
        assert REGISTRY.get("repro_cluster_latency_ns") is None
        assert REGISTRY.get("repro_cluster_bytes_total") is None

    def test_event_log_gains_send_recv(self, deadlock_prone_system):
        event_log = EventLog()
        run_cluster_sync(
            deadlock_prone_system,
            rounds=1,
            seed=3,
            max_retries=16,
            event_log=event_log,
        )
        kinds = {event.kind for event in event_log}
        assert {"send", "recv"} <= kinds
        sends = [e for e in event_log if e.kind == "send"]
        assert all(e.detail and "B" in e.detail for e in sends)
