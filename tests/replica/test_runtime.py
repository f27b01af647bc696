"""The replicated runtime: report shape, determinism, validation."""

import json
import re

import pytest

from repro.cluster import LatencyMatrix
from repro.cluster.runtime import ClusterError
from repro.core.schedule import TransactionSystem
from repro.errors import ReproError
from repro.faults.plan import FaultPlan, SiteCrash
from repro.obs.distributed import WIRE
from repro.obs.events import EventLog
from repro.replica import ReplicaReport, run_replicated_sync

from .conftest import chain_tx


class TestHealthyRun:
    def test_all_commit_without_failover(self, transfer_system):
        report = run_replicated_sync(transfer_system, replicas=3, rounds=2)
        assert isinstance(report, ReplicaReport)
        assert report.committed == report.transactions == 4
        assert report.serializable
        assert report.audit_complete
        assert report.failovers == 0
        assert report.replicas == 3
        # Exactly the boot leaders: replica 0 of each of the 2 sites.
        assert [e["epoch"] for e in report.elections] == [1, 1]

    def test_report_payload_round_trips(self, transfer_system):
        report = run_replicated_sync(transfer_system, replicas=3)
        payload = report.to_dict()
        for key in (
            "replicas",
            "lease_ticks",
            "failovers",
            "elections",
            "recovery",
            "clock_end",
            "history_fingerprint",
            "outcome_fingerprint",
        ):
            assert key in payload
        assert payload["replicas"] == 3
        rendered = report.render()
        assert "replicas" in rendered and "failovers" in rendered

    def test_same_seed_is_bit_deterministic(self, transfer_system):
        first = run_replicated_sync(
            transfer_system, replicas=3, rounds=3, seed=11
        )
        second = run_replicated_sync(
            transfer_system, replicas=3, rounds=3, seed=11
        )
        assert first.history_fingerprint == second.history_fingerprint
        # Outcomes too — including the retry schedule each txn took.
        assert first.outcome_fingerprint == second.outcome_fingerprint


def first_grant_clocks(log):
    """Replica address -> shared-clock tick of the first lock grant
    there, read off the timeline: the tick stamped on the next frame
    sent after the ``grant`` event (the reply leaves inside the handler
    that granted, so no tick intervenes)."""
    clocks, granted_at = {}, None
    for event in log.events:
        if event.kind == "grant" and event.site not in clocks:
            granted_at = event.site
        elif event.kind == "send" and granted_at is not None:
            clocks[granted_at] = int(re.search(r"clock=(\d+)", event.detail).group(1))
            granted_at = None
    return clocks


class TestFirstGrantStamp:
    """``elections[*].first_grant_at`` (what recovery time is measured
    to) is the leader's *first* grant, however the grant was framed.
    Regression: grants answered inline in a ``batch`` reply bypassed
    the stamp, so batched runs recorded the first *promoted* grant —
    or nothing at all when no lock ever queued."""

    def test_uncontended_batched_run_stamps_both_boot_leaders(self, two_site_db):
        system = TransactionSystem([chain_tx("T1", two_site_db, ["x", "y"])])
        report = run_replicated_sync(system, replicas=3, batch=True)
        assert report.committed == 1
        assert [e["first_grant_at"] is not None for e in report.elections] == [True, True]

    @pytest.mark.parametrize("batch", [False, True])
    def test_stamp_is_the_clock_of_the_first_grant(self, transfer_system, batch):
        log = EventLog()
        report = run_replicated_sync(
            transfer_system,
            replicas=3,
            batch=batch,
            rounds=25,
            max_retries=16,
            concurrency=4,
            seed=14,
            event_log=log,
        )
        # Followers mute their lock events, so the timeline's grants
        # are exactly the two boot leaders'.
        stamps = {e["address"]: e["first_grant_at"] for e in report.elections}
        assert stamps == first_grant_clocks(log)
        assert set(stamps) == {1000, 2000}


class TestGoldenOracle:
    """``benchmarks/suite/expected.json``'s ``replica3-transfer`` case
    pinned in tier-1, with the one-replica group that is the
    benchmark's message-amplification denominator."""

    @pytest.mark.parametrize("replicas, messages", [(3, 5689), (1, 1887)])
    def test_transfer_pair_is_pinned(self, transfer_system, replicas, messages):
        report = run_replicated_sync(
            transfer_system,
            replicas=replicas,
            rounds=25,
            max_retries=16,
            concurrency=4,
            seed=14,
        )
        assert report.history_fingerprint[:16] == "66224cf91e8aa1a6"
        assert report.outcome_fingerprint[:16] == "fb4ce430d51548ed"
        assert report.messages == messages
        assert report.replicas == replicas

    def test_binary_codec_sends_the_same_frames(self, transfer_system):
        # Each coordinator dials its own replica connections, so any
        # per-dial codec exchange would show in the message count.
        report = run_replicated_sync(
            transfer_system,
            replicas=3,
            rounds=25,
            max_retries=16,
            concurrency=4,
            seed=14,
            codec="binary",
        )
        assert report.history_fingerprint[:16] == "66224cf91e8aa1a6"
        assert report.outcome_fingerprint[:16] == "fb4ce430d51548ed"
        assert report.messages == 5689

    def test_batched_transfer_pair_is_pinned(self, transfer_system):
        # The cell neither the suite nor the cases above cover: batch
        # frames (inline grants, parked continuations) through replica
        # groups, so log shipping sees batched mutations.
        report = run_replicated_sync(
            transfer_system,
            replicas=3,
            batch=True,
            rounds=25,
            max_retries=16,
            concurrency=4,
            seed=14,
        )
        assert report.history_fingerprint[:16] == "df4c3b98a33c522f"
        assert report.outcome_fingerprint[:16] == "13c7a044947fc2c5"
        assert report.messages == 2917


class TestValidation:
    def test_fault_plan_requires_request_timeout(self, transfer_system):
        plan = FaultPlan(site_crashes=(SiteCrash(site=1, at=10),))
        with pytest.raises(ClusterError, match="request_timeout"):
            run_replicated_sync(transfer_system, replicas=3, fault_plan=plan)

    def test_fault_plan_validated_against_topology(self, transfer_system):
        from repro.errors import FaultPlanError

        plan = FaultPlan(site_crashes=(SiteCrash(site=9, at=10),))
        with pytest.raises(FaultPlanError, match="unknown site 9"):
            run_replicated_sync(
                transfer_system,
                replicas=3,
                fault_plan=plan,
                request_timeout=1.0,
            )

    def test_replicas_must_be_positive(self, transfer_system):
        with pytest.raises(ClusterError, match="replica"):
            run_replicated_sync(transfer_system, replicas=0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"arrivals": [0, 3]},
            {"latency": LatencyMatrix(regions={1: "us"}, delay_ticks={})},
        ],
    )
    def test_traffic_knobs_are_plain_only(self, transfer_system, knobs):
        with pytest.raises(ClusterError, match="cannot be combined with replicas"):
            run_replicated_sync(transfer_system, replicas=3, **knobs)

    @pytest.mark.parametrize(
        "knobs", [{"transport": "bogus"}, {"codec": "bogus"}, {"replicas": 0}]
    )
    def test_rejected_config_leaves_wire_idle(self, transfer_system, knobs):
        with pytest.raises(ReproError):
            run_replicated_sync(transfer_system, wire_metrics=True, **knobs)
        assert not WIRE.metrics_enabled
        assert WIRE.event_log is None
        assert not WIRE.active


class TestGrantDelayAndLeaderKill:
    """A grant delay ticks the run's one clock, so leases age while
    the withheld grant waits; a private copy of the clock that the
    next frame set back once let this run lose five of its eight
    transactions to retry exhaustion."""

    def test_every_transaction_commits(self, tmp_path, capsys):
        from repro.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "grant_delays": [{"entity": "checking", "at": 5, "until": 200}],
                    "site_crashes": [{"site": 2, "at": 150}],
                }
            )
        )
        code = main(
            [
                "cluster", "run", "examples/systems/transfer_2pl.sys",
                "--replicas", "3", "--rounds", "4", "--concurrency", "4",
                "--seed", "0", "--request-timeout", "1", "--max-retries", "8",
                "--faults", str(plan), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["committed"] == payload["transactions"] == 8
        assert payload["audit_complete"] and payload["serializable"]
        assert code == 0
