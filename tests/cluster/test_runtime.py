"""End-to-end cluster runs: vetting, faults, serializability audit."""

import asyncio
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.cluster import ClusterError, run_cluster_sync
from repro.cluster.runtime import run_cluster
from repro.cluster.siteserver import SiteServer
from repro.cluster.transport import MemoryTransport
from repro.errors import ReproError
from repro.faults import FaultPlan, GrantDelay, MessageDrop, SiteCrash
from repro.obs.distributed import WIRE
from repro.obs.events import EventLog
from repro.obs.metrics import REGISTRY
from repro.replica import run_replicated_sync
from repro.sim.analysis import serializable_from_site_orders
from repro.workloads import figure_1

from .conftest import deadlock_prone_pair


class TestSafeWorkloads:
    def test_deadlock_prone_pair_commits_serializably(
        self, deadlock_prone_system
    ):
        report = run_cluster_sync(
            deadlock_prone_system, rounds=4, seed=3, max_retries=8
        )
        assert report.mode == "vetted-safe"
        assert report.serializable
        assert report.serial_witness is not None
        assert report.committed == report.transactions

    def test_round_clones_get_distinct_names(self, deadlock_prone_system):
        report = run_cluster_sync(deadlock_prone_system, rounds=3, seed=0)
        names = {outcome.name for outcome in report.outcomes}
        assert "T1" in names and "T1@r2" in names and "T1@r3" in names
        assert len(names) == 6

    @pytest.mark.parametrize("batch", [False, True], ids=["nobatch", "batch"])
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_tcp_transport_run(self, deadlock_prone_system, codec, batch):
        # Every wire configuration commits the whole workload over real
        # sockets, and the site orders pass an audit of their own.
        report = run_cluster_sync(
            deadlock_prone_system,
            transport="tcp",
            rounds=3,
            seed=1,
            max_retries=8,
            request_timeout=30.0,
            codec=codec,
            batch=batch,
        )
        assert report.transport == "tcp"
        assert report.serializable
        assert report.audit_complete
        assert serializable_from_site_orders(report.site_orders)
        assert report.committed == report.transactions


class TestUnsafeWorkloads:
    def test_figure_1_runs_runtime_guarded(self):
        report = run_cluster_sync(figure_1(), rounds=3, seed=7)
        assert report.mode == "runtime-guarded"
        assert report.gateway is not None and report.gateway.rejected

    def test_figure_1_exhibits_non_serializable_history(self):
        # The paper's Fig. 1 pair is unsafe; under concurrent rounds the
        # anomaly actually materializes in the committed site orders.
        report = run_cluster_sync(figure_1(), rounds=3, seed=7)
        assert not report.serializable
        assert report.serial_witness is None


class TestDeterminism:
    def test_same_seed_same_history(self, deadlock_prone_system):
        first = run_cluster_sync(deadlock_prone_system, rounds=4, seed=11)
        second = run_cluster_sync(deadlock_prone_system, rounds=4, seed=11)
        assert first.history_fingerprint == second.history_fingerprint
        assert [o.to_dict() for o in first.outcomes] == [
            o.to_dict() for o in second.outcomes
        ]
        # The outcome fingerprint digests the full outcome list —
        # including each transaction's retry count, so a run is only
        # "deterministic" if its retry/backoff schedule replayed too.
        assert first.outcome_fingerprint == second.outcome_fingerprint
        assert first.outcome_fingerprint != first.history_fingerprint

    def test_different_seed_changes_outcome_fingerprint(
        self, deadlock_prone_system
    ):
        first = run_cluster_sync(deadlock_prone_system, rounds=4, seed=11)
        other = run_cluster_sync(deadlock_prone_system, rounds=4, seed=12)
        # The committed history may coincide; the seeded retry jitter
        # makes identical full outcomes across seeds vanishingly rare.
        assert (
            first.outcome_fingerprint != other.outcome_fingerprint
            or [o.to_dict() for o in first.outcomes]
            == [o.to_dict() for o in other.outcomes]
        )

    def test_unsafe_history_deterministic_too(self):
        first = run_cluster_sync(figure_1(), rounds=3, seed=7)
        second = run_cluster_sync(figure_1(), rounds=3, seed=7)
        assert first.history_fingerprint == second.history_fingerprint


#: (batch, history, outcomes, messages) of the transfer pair at seed 14.
TRANSFER_PINS = [
    (False, "7082f594c9fd7e9c", "73ef7f1cb86f4e0e", 4217),
    (True, "43f1640325abfc8a", "ad48cac376bb65fa", 2729),
]


class TestGoldenOracle:
    """The transfer pair at the benchmark's seed, pinned bit for bit:
    the same cases ``benchmarks/suite/expected.json`` holds
    (``transfer-mem``), so a runner refactor that moves a fingerprint
    or a message count fails tier-1, not only the benchmark."""

    @pytest.mark.parametrize("batch, history, outcomes, messages", TRANSFER_PINS)
    def test_transfer_pair_is_pinned(
        self, deadlock_prone_system, batch, history, outcomes, messages
    ):
        report = run_cluster_sync(
            deadlock_prone_system,
            rounds=50,
            batch=batch,
            max_retries=16,
            concurrency=4,
            seed=14,
        )
        assert report.history_fingerprint[:16] == history
        assert report.outcome_fingerprint[:16] == outcomes
        assert report.messages == messages

    @pytest.mark.parametrize("batch, history, outcomes, messages", TRANSFER_PINS)
    def test_binary_codec_sends_the_same_frames(
        self, deadlock_prone_system, batch, history, outcomes, messages
    ):
        # The codec is framing only: a binary run delivers the JSON
        # run's messages in the JSON run's order.
        report = run_cluster_sync(
            deadlock_prone_system,
            rounds=50,
            batch=batch,
            max_retries=16,
            concurrency=4,
            seed=14,
            codec="binary",
        )
        assert report.history_fingerprint[:16] == history
        assert report.outcome_fingerprint[:16] == outcomes
        assert report.messages == messages


class TestNetworkFaults:
    def test_message_drops_survived_via_request_timeout(
        self, deadlock_prone_system
    ):
        plan = FaultPlan(message_drops=(MessageDrop(site=1, at=2, until=6),))
        log = EventLog()
        report = run_cluster_sync(
            deadlock_prone_system,
            rounds=2,
            seed=3,
            fault_plan=plan,
            request_timeout=0.5,
            max_retries=8,
            event_log=log,
        )
        assert report.dropped >= 1
        assert len(log.of_kind("drop")) == report.dropped
        assert report.serializable

    def test_site_crash_freezes_then_recovers(self, deadlock_prone_system):
        plan = FaultPlan(site_crashes=(SiteCrash(site=2, at=3, recover_at=10),))
        log = EventLog()
        report = run_cluster_sync(
            deadlock_prone_system,
            rounds=2,
            seed=3,
            fault_plan=plan,
            max_retries=8,
            event_log=log,
        )
        assert len(log.of_kind("crash")) == 1
        assert len(log.of_kind("recover")) == 1
        assert report.committed == report.transactions
        assert report.serializable

    def test_grant_delay_slows_but_preserves_correctness(
        self, deadlock_prone_system
    ):
        plan = FaultPlan(grant_delays=(GrantDelay(at=1, until=8, entity="x"),))
        report = run_cluster_sync(
            deadlock_prone_system,
            rounds=2,
            seed=3,
            fault_plan=plan,
            max_retries=8,
        )
        assert report.committed == report.transactions
        assert report.serializable

    def test_plan_validated_against_system(self, deadlock_prone_system):
        plan = FaultPlan(message_drops=(MessageDrop(site=9, at=0, until=4),))
        with pytest.raises(Exception):
            run_cluster_sync(deadlock_prone_system, fault_plan=plan)


class TestAuditCompleteness:
    def test_permanent_crash_requires_request_timeout(self, deadlock_prone_system):
        plan = FaultPlan(site_crashes=(SiteCrash(site=1, at=3),))
        with pytest.raises(ClusterError, match="permanent"):
            run_cluster_sync(deadlock_prone_system, fault_plan=plan)

    def test_permanent_crash_allowed_with_request_timeout(self, deadlock_prone_system):
        plan = FaultPlan(site_crashes=(SiteCrash(site=1, at=10_000),))
        report = run_cluster_sync(
            deadlock_prone_system, fault_plan=plan, request_timeout=5.0, seed=0
        )
        assert report.committed == report.transactions

    def test_unanswered_history_flags_site_unreachable(
        self, deadlock_prone_system, monkeypatch
    ):
        from repro.cluster.siteserver import SiteServer

        async def swallow_history(self, connection, message):
            pass

        monkeypatch.setattr(SiteServer, "_on_history", swallow_history)
        report = run_cluster_sync(
            deadlock_prone_system, seed=0, request_timeout=0.2, max_retries=8
        )
        assert report.unreachable_sites == [1, 2]
        assert not report.audit_complete
        assert report.to_dict()["audit_complete"] is False

    def test_history_hang_up_flags_site_unreachable(
        self, deadlock_prone_system, monkeypatch
    ):
        # A site that hangs up on ``history`` answered nothing: the
        # audit ran without its site orders and must say so.
        from repro.cluster import protocol
        from repro.cluster.siteserver import SiteServer

        async def refuse_history(self, connection, message):
            raise protocol.ProtocolError("history refused")

        monkeypatch.setattr(SiteServer, "_on_history", refuse_history)
        report = run_cluster_sync(deadlock_prone_system, seed=0, rounds=2)
        assert report.unreachable_sites == [1, 2]
        assert not report.audit_complete

    def test_lost_commit_reported_as_partial_commit(
        self, deadlock_prone_system, monkeypatch
    ):
        from repro.cluster.siteserver import SiteServer

        async def swallow_commit(self, connection, message):
            pass

        monkeypatch.setattr(SiteServer, "_on_commit", swallow_commit)
        report = run_cluster_sync(
            deadlock_prone_system, seed=0, request_timeout=0.1, max_retries=8
        )
        assert report.partial_commits == report.transactions
        assert report.committed == 0
        assert not report.audit_complete
        outcome = report.outcomes[0]
        assert outcome.outcome == "partial-commit"
        assert outcome.unacked_commit_sites
        assert (
            outcome.to_dict()["unacked_commit_sites"] == outcome.unacked_commit_sites
        )


class TestConfiguration:
    def test_bad_rounds_rejected(self, deadlock_prone_system):
        with pytest.raises(ClusterError):
            run_cluster_sync(deadlock_prone_system, rounds=0)

    def test_negative_retry_budget_rejected(self, deadlock_prone_system):
        with pytest.raises(ClusterError, match="max_retries"):
            run_cluster_sync(deadlock_prone_system, max_retries=-1)

    def test_bad_transport_rejected(self, deadlock_prone_system):
        with pytest.raises(ClusterError):
            run_cluster_sync(deadlock_prone_system, transport="carrier-pigeon")

    @pytest.mark.parametrize(
        "knobs",
        [{"transport": "bogus"}, {"codec": "bogus"}, {"rounds": 0}, {"arrivals": [0]}],
    )
    def test_rejected_config_leaves_wire_idle(self, deadlock_prone_system, knobs):
        # Validation runs before any process-global state is touched:
        # a rejected run must not leave wire metrics on or an event
        # log attached for the rest of the process.
        with pytest.raises(ReproError):
            run_cluster_sync(
                deadlock_prone_system, wire_metrics=True, event_log=EventLog(), **knobs
            )
        assert not WIRE.metrics_enabled
        assert WIRE.event_log is None
        assert not WIRE.active

    def test_ready_transport_must_use_the_configured_codec(self, deadlock_prone_system):
        with pytest.raises(ClusterError, match="codec"):
            run_cluster_sync(deadlock_prone_system, transport=MemoryTransport(), codec="binary")

    def test_unvetted_mode(self, deadlock_prone_system):
        report = run_cluster_sync(deadlock_prone_system, vet=False, seed=0)
        assert report.mode == "unvetted"
        assert report.gateway is None

    def test_report_to_dict_is_json_shaped(self, deadlock_prone_system):
        import json

        report = run_cluster_sync(deadlock_prone_system, rounds=2, seed=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["transport"] == "memory"
        assert payload["committed"] == report.committed
        assert payload["history_fingerprint"] == report.history_fingerprint

    def test_run_cluster_is_a_coroutine(self, deadlock_prone_system):
        report = asyncio.run(run_cluster(deadlock_prone_system, seed=0))
        assert report.committed == 2


class TestArrivalsAndLatency:
    """The traffic hooks: open-loop arrival schedules and the region
    latency matrix, both injected by --workload / the arena."""

    def latency(self):
        from repro.cluster import LatencyMatrix

        return LatencyMatrix(
            regions={1: "us", 2: "eu"},
            delay_ticks={"us": {"us": 0, "eu": 2}, "eu": {"us": 2, "eu": 0}},
            client_region="us",
        )

    def test_open_loop_arrivals_commit_serializably(self, deadlock_prone_system):
        report = run_cluster_sync(
            deadlock_prone_system, seed=0, arrivals=[0, 3], max_retries=8
        )
        assert report.serializable
        assert report.committed == report.transactions == 2

    def test_arrivals_must_match_workload_size(self, deadlock_prone_system):
        with pytest.raises(ClusterError, match="arrival"):
            run_cluster_sync(deadlock_prone_system, seed=0, arrivals=[0])

    def test_arrivals_are_deterministic(self, deadlock_prone_system):
        runs = [
            run_cluster_sync(
                deadlock_prone_system, seed=4, arrivals=[0, 5], max_retries=8
            )
            for _ in range(2)
        ]
        assert runs[0].history_fingerprint == runs[1].history_fingerprint
        assert runs[0].outcome_fingerprint == runs[1].outcome_fingerprint

    def test_latency_matrix_tags_transport_and_stays_serializable(
        self, deadlock_prone_system
    ):
        report = run_cluster_sync(
            deadlock_prone_system, seed=0, latency=self.latency(), max_retries=8
        )
        assert report.transport == "memory+latency"
        assert report.serializable
        assert report.committed == report.transactions

    def test_latency_runs_are_deterministic(self, deadlock_prone_system):
        runs = [
            run_cluster_sync(
                deadlock_prone_system, seed=2, latency=self.latency(), max_retries=8
            )
            for _ in range(2)
        ]
        assert runs[0].history_fingerprint == runs[1].history_fingerprint
        assert runs[0].outcome_fingerprint == runs[1].outcome_fingerprint

    def test_latency_matrix_defaults_to_zero_delay(self):
        from repro.cluster import LatencyMatrix

        matrix = LatencyMatrix(regions={1: "us"}, delay_ticks={}, client_region="us")
        assert matrix.delay("us", "us") == 0
        assert matrix.region_of_site(1) == "us"
        assert matrix.region_of_site(9) == "us"


_SERIES_SCRIPT = """
import json, sys
from repro.cluster import run_cluster_sync
from repro.obs.metrics import REGISTRY
from repro.replica import run_replicated_sync
from tests.cluster.conftest import deadlock_prone_pair
runner, wire_metrics = sys.argv[1:]
run = run_replicated_sync if runner == "replicated" else run_cluster_sync
run(deadlock_prone_pair(), **json.loads(wire_metrics))
print(json.dumps(REGISTRY.get("repro_cluster_messages_total").to_dict()["series"]))
"""


_RUNNERS = {
    "plain": (run_cluster_sync, {"rounds": 2, "seed": 3, "max_retries": 16}),
    "replicated": (
        run_replicated_sync,
        {"replicas": 3, "rounds": 2, "seed": 3, "max_retries": 16},
    ),
}


class TestRunLeavesNothingBehind:
    """Servers bind metric children for their run's lifetime: the run
    must take them with it, and the next run must start from none."""

    @pytest.mark.parametrize("runner", sorted(_RUNNERS))
    def test_servers_die_with_the_run_without_a_collection(self, runner, monkeypatch):
        # The tier-1 stand-in for the benchmark's peak-RSS bound: a
        # server caught in a reference cycle (say, a cache of its own
        # bound methods) survives until a full collection, and a process
        # running back-to-back units then holds every run's lock tables.
        run, knobs = _RUNNERS[runner]
        servers = []
        init = SiteServer.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            servers.append(weakref.ref(self))

        monkeypatch.setattr(SiteServer, "__init__", tracking_init)
        gc.collect()
        gc.disable()
        try:
            report = run(deadlock_prone_pair(), **knobs)
            alive = [ref() for ref in servers if ref() is not None]
        finally:
            gc.enable()
        assert report.committed == report.transactions
        assert len(servers) == (6 if runner == "replicated" else 2)
        assert not alive

    @pytest.mark.parametrize("wire_metrics", [False, True], ids=["plain", "wired"])
    @pytest.mark.parametrize("runner", sorted(_RUNNERS))
    def test_back_to_back_runs_count_like_fresh_processes(self, runner, wire_metrics):
        # A handle bound in one run and mutated in the next would leave
        # the second run's series short (the registry was reset between
        # them) — so each in-process run must report what a process
        # that ran nothing else reports.
        run, knobs = _RUNNERS[runner]
        knobs = {**knobs, "wire_metrics": wire_metrics}
        root = Path(__file__).resolve().parents[2]
        fresh = subprocess.run(
            [sys.executable, "-c", _SERIES_SCRIPT, runner, json.dumps(knobs)],
            cwd=root,
            env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
            capture_output=True,
            text=True,
            check=True,
        )
        expected = json.loads(fresh.stdout)
        assert expected
        for _ in range(2):
            report = run(deadlock_prone_pair(), **knobs)
            series = REGISTRY.get("repro_cluster_messages_total").to_dict()["series"]
            assert series == expected
            processed = sum(n for key, n in series.items() if "direction=" not in key)
            assert processed == report.messages
