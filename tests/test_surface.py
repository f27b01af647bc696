"""The trimmed runtime surface stays trimmed.

Settings that no caller ever set to anything but their default are
constants, and request kinds that nothing sent are gone.  These tests
fail when one of them grows back: a new run knob has to be added to
the field set below on purpose, and a new request kind needs a handler
(and a handler needs a kind).
"""

import inspect
from dataclasses import fields

import pytest

from repro.arena import run_arena, run_cell
from repro.cluster import PEER_KINDS, REQUEST_KINDS, ClusterConfig, Gateway, TcpTransport
from repro.cluster.coordinator import Coordinator, SiteClientPool
from repro.cluster.siteserver import SiteServer
from repro.replica import LeaderResolver, ReplicaServer
from repro.sim.engine import SimulationEngine

#: Settings made constants; none of these may come back as a parameter.
REMOVED_SETTINGS = {
    "backoff_base",
    "backoff_jitter",
    "failover_attempts",
    "tick_seconds",
    "cache_size",
    "vet_cycle_limit",
    "election_timeout",
    "replication_timeout",
    "query_timeout",
}


def test_cluster_config_fields_are_exactly_these():
    assert {knob.name for knob in fields(ClusterConfig)} == {
        "transport",
        "rounds",
        "concurrency",
        "deadlock_policy",
        "max_retries",
        "seed",
        "vet",
        "fault_plan",
        "event_log",
        "grant_timeout",
        "request_timeout",
        "gateway",
        "wire_metrics",
        "codec",
        "batch",
        "arrivals",
        "latency",
        "postmortem_dir",
        "replicas",
        "lease_ticks",
    }


@pytest.mark.parametrize(
    "callable_",
    [Coordinator, SimulationEngine, TcpTransport, Gateway, run_cell, run_arena, LeaderResolver],
    ids=lambda c: c.__name__,
)
def test_no_removed_setting_is_a_parameter(callable_):
    assert not set(inspect.signature(callable_).parameters) & REMOVED_SETTINGS


def test_replica_server_keeps_only_the_election_timeout():
    # Failover tests run replicas at a short election timeout; the
    # replication timeout is a constant.
    parameters = set(inspect.signature(ReplicaServer).parameters)
    assert parameters & REMOVED_SETTINGS == {"election_timeout"}


def test_the_transport_owns_the_codec():
    # No hello exchange: a connection sends with its transport's codec,
    # so neither the coordinator nor the pool picks one, and the pool
    # sends no request that needs a timeout.
    assert "hello" not in REQUEST_KINDS
    assert "codec" not in inspect.signature(Coordinator).parameters
    assert not {"codec", "request_timeout"} & set(inspect.signature(SiteClientPool).parameters)


def _handled_kinds() -> set[str]:
    return {
        name[len("_on_") :]
        for server in (SiteServer, ReplicaServer)
        for name in dir(server)
        if name.startswith("_on_")
    }


def test_every_kind_has_a_handler():
    assert set(REQUEST_KINDS + PEER_KINDS) <= _handled_kinds()


def test_every_handler_names_a_kind():
    assert _handled_kinds() <= set(REQUEST_KINDS + PEER_KINDS)
