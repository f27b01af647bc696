"""Batched step shipping and the binary wire codec.

Three layers of the batching/binary feature, pinned independently:

* the **batch request** against a live site server — inline outcomes,
  parked continuations behind a queued lock, supersession of a retried
  batched lock (which must keep the original grant timer, answered at
  the retry's id), and deadlock probes launched from edges a batch
  created;
* the **codecs** — a hypothesis property that every protocol-shaped
  message round-trips identically through JSON and binary framing;
* the **runtime** — batched binary runs stay deterministic on the
  memory transport, send exactly the frames a JSON run sends, and
  commit partial-order workloads serializably.
"""

import asyncio
import json
import random

from hypothesis import given, settings, strategies as st

from repro.cluster import protocol, run_cluster_sync
from repro.cluster.protocol import BINARY_CODEC, JSON_CODEC
from repro.cluster.siteserver import SiteServer
from repro.cluster.transport import MemoryTransport
from repro.replica import run_replicated_sync
from repro.workloads.random_transactions import random_system


def run(coro):
    return asyncio.run(coro)


async def _boot(**kwargs):
    transport = MemoryTransport()
    server = SiteServer(1, transport=transport, **kwargs)
    await server.start()
    return transport, server


def batch_steps(*specs):
    """Step dicts for a batch request: ``(op, id, entity)`` triples."""
    return [{"op": op, "id": step_id, "entity": entity} for op, step_id, entity in specs]


class TestBatchRequest:
    def test_uncontended_batch_answers_every_step_inline(self):
        async def scenario():
            transport, server = await _boot()
            a = await transport.connect(1)
            await a.send(
                protocol.request(
                    "batch",
                    1,
                    txn="T1",
                    age=0,
                    steps=batch_steps(
                        ("lock", 10, "x"), ("update", 11, "x"), ("unlock", 12, "x")
                    ),
                )
            )
            reply = await a.recv()
            await transport.close()
            return reply

        reply = run(scenario())
        assert reply["status"] == "batch"
        assert [(r["id"], r["status"]) for r in reply["results"]] == [
            (10, "granted"),
            (11, "applied"),
            (12, "released"),
        ]

    def test_queued_lock_parks_rest_and_resumes_on_grant(self):
        async def scenario():
            transport, server = await _boot()
            a = await transport.connect(1)
            b = await transport.connect(1)
            await a.send(
                protocol.request("batch", 1, txn="T1", age=0, steps=batch_steps(("lock", 10, "x")))
            )
            assert (await a.recv())["results"][0]["status"] == "granted"
            # T2's lock queues; the update and unlock behind it are
            # parked and must run (individually answered) after T1
            # releases — a grant must never strand its continuation.
            await b.send(
                protocol.request(
                    "batch",
                    2,
                    txn="T2",
                    age=1,
                    steps=batch_steps(
                        ("lock", 20, "x"), ("update", 21, "x"), ("unlock", 22, "x")
                    ),
                )
            )
            queued = await b.recv()
            await a.send(
                protocol.request("batch", 3, txn="T1", age=0, steps=batch_steps(("unlock", 13, "x")))
            )
            await a.recv()
            continuation = [await b.recv() for _ in range(3)]
            await transport.close()
            return queued, continuation

        queued, continuation = run(scenario())
        assert queued["status"] == "batch"
        assert queued["results"] == [{"id": 20, "status": "queued", "entity": "x"}]
        assert [(m["id"], m["status"]) for m in continuation] == [
            (20, "granted"),
            (21, "applied"),
            (22, "released"),
        ]

    def test_superseded_batched_lock_keeps_the_grant_timer(self):
        # Regression: a batch whose outcomes mix granted, queued, and
        # superseded must never lose the queued lock's grant timer.
        # The retry takes over the original pending entry (timer and
        # queue slot included); the timer's eventual answer must carry
        # the *retry's* step id, and the steps parked behind the
        # original lock are cancelled, not silently dropped.
        async def scenario():
            transport, server = await _boot(deadlock_policy=None, grant_timeout=5)
            a = await transport.connect(1)
            b = await transport.connect(1)
            await a.send(
                protocol.request("batch", 1, txn="T1", age=0, steps=batch_steps(("lock", 10, "x")))
            )
            await a.recv()
            # T2: lock y grants inline, lock x queues, update x parks.
            await b.send(
                protocol.request(
                    "batch",
                    2,
                    txn="T2",
                    age=1,
                    steps=batch_steps(
                        ("lock", 20, "y"), ("lock", 21, "x"), ("update", 22, "x")
                    ),
                )
            )
            first = await b.recv()
            # T2 retries the queued tail with fresh ids before the
            # timer fires: the original id is answered "superseded",
            # its parked update "cancelled".
            await b.send(
                protocol.request(
                    "batch",
                    3,
                    txn="T2",
                    age=1,
                    steps=batch_steps(("lock", 31, "x"), ("update", 32, "x")),
                )
            )
            superseded = await b.recv()
            cancelled = await b.recv()
            retry = await b.recv()
            # Nobody unlocks x, so the surviving timer must answer the
            # retry's id with "timeout".
            timed_out = await b.recv()
            await transport.close()
            return first, superseded, cancelled, retry, timed_out

        first, superseded, cancelled, retry, timed_out = run(scenario())
        assert [(r["id"], r["status"]) for r in first["results"]] == [
            (20, "granted"),
            (21, "queued"),
        ]
        assert (superseded["id"], superseded["status"]) == (21, "superseded")
        assert (cancelled["id"], cancelled["status"]) == (22, "cancelled")
        assert retry["results"] == [{"id": 31, "status": "queued", "entity": "x"}]
        assert (timed_out["id"], timed_out["status"]) == (31, "timeout")

    def test_deadlock_probes_traverse_batch_created_edges(self):
        async def scenario():
            transport, server = await _boot()
            a = await transport.connect(1)
            b = await transport.connect(1)
            await a.send(
                protocol.request("batch", 1, txn="T1", age=0, steps=batch_steps(("lock", 10, "x")))
            )
            await a.recv()
            await b.send(
                protocol.request("batch", 2, txn="T2", age=1, steps=batch_steps(("lock", 20, "y")))
            )
            await b.recv()
            # Both wait-for edges are created by batched locks; the
            # probes they launch must still find the cycle and abort
            # the youngest.
            await a.send(
                protocol.request("batch", 3, txn="T1", age=0, steps=batch_steps(("lock", 11, "y")))
            )
            assert (await a.recv())["results"][0]["status"] == "queued"
            await b.send(
                protocol.request("batch", 4, txn="T2", age=1, steps=batch_steps(("lock", 21, "x")))
            )
            # The probe resolves the cycle while the batch is still
            # being processed, so the individual "deadlock" frame may
            # precede the batch reply carrying the "queued" result.
            replies = [await b.recv(), await b.recv()]
            await transport.close()
            return replies

        replies = run(scenario())
        batched = next(m for m in replies if m["status"] == "batch")
        verdict = next(m for m in replies if m["status"] != "batch")
        assert batched["results"][0]["status"] == "queued"
        assert verdict["status"] == "deadlock"
        assert verdict["id"] == 21
        assert verdict["victim"] == "T2"
        assert set(verdict["cycle"]) == {"T1", "T2"}


# ----------------------------------------------------------------------
# Codec cross-compatibility
# ----------------------------------------------------------------------
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.sampled_from(protocol._COMMON_STRINGS)
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_messages = st.fixed_dictionaries(
    {"type": st.sampled_from(protocol.REQUEST_KINDS + protocol.PEER_KINDS)},
    optional={"id": st.integers(min_value=0, max_value=2**40), "payload": _values},
)


class TestCodecCompatibility:
    @settings(max_examples=200, deadline=None)
    @given(message=_messages)
    def test_both_codecs_round_trip_identically(self, message):
        for codec in (JSON_CODEC, BINARY_CODEC):
            payload = codec.encode_payload(message)
            decoded = codec.decode_payload(payload)
            assert decoded == message, codec.name
            # Canonical: equal messages encode to equal bytes.
            assert codec.encode_payload(decoded) == payload, codec.name
            # Full framing, with per-frame codec auto-detection.
            assert protocol.decode(protocol.encode(message, codec)) == message
        # The JSON codec is the standard library's compact, key-sorted
        # JSON byte for byte, both ways.
        payload = JSON_CODEC.encode_payload(message)
        assert payload == json.dumps(message, separators=(",", ":"), sort_keys=True).encode()
        assert JSON_CODEC.decode_payload(payload) == json.loads(payload)
        assert JSON_CODEC.decode_payload(
            JSON_CODEC.encode_payload(message)
        ) == BINARY_CODEC.decode_payload(BINARY_CODEC.encode_payload(message))

    def test_binary_frames_are_smaller_on_protocol_vocabulary(self):
        message = protocol.request("lock", 7, txn="T1", entity="x", age=0)
        assert len(BINARY_CODEC.encode_payload(message)) < len(
            JSON_CODEC.encode_payload(message)
        )


# ----------------------------------------------------------------------
# Runtime contracts with batching on
# ----------------------------------------------------------------------
class TestBatchedRuntime:
    def test_batched_binary_run_is_deterministic(self, deadlock_prone_system):
        first, second = (
            run_cluster_sync(
                deadlock_prone_system,
                rounds=3,
                seed=11,
                max_retries=8,
                codec="binary",
                batch=True,
            )
            for _ in range(2)
        )
        assert first.committed == first.transactions
        assert first.serializable and first.audit_complete
        assert first.history_fingerprint == second.history_fingerprint
        assert first.outcome_fingerprint == second.outcome_fingerprint

    def test_codec_never_changes_the_outcome(self, deadlock_prone_system):
        # Batching reshapes message timing and so may reschedule, but
        # the codec is pure framing: json and binary runs of the same
        # batch mode must agree on every outcome.
        for batch in (False, True):
            json_run, binary_run = (
                run_cluster_sync(
                    deadlock_prone_system,
                    rounds=3,
                    seed=11,
                    max_retries=8,
                    codec=codec,
                    batch=batch,
                )
                for codec in ("json", "binary")
            )
            assert binary_run.outcome_fingerprint == json_run.outcome_fingerprint
            assert binary_run.history_fingerprint == json_run.history_fingerprint
            assert binary_run.messages == json_run.messages

    def test_codec_never_changes_the_replicated_outcome(self, deadlock_prone_system):
        # The replicated leg: leader queries, log shipping and every
        # per-coordinator dial carry the run's codec and nothing more.
        for batch in (False, True):
            json_run, binary_run = (
                run_replicated_sync(
                    deadlock_prone_system,
                    replicas=3,
                    rounds=3,
                    seed=11,
                    max_retries=8,
                    codec=codec,
                    batch=batch,
                )
                for codec in ("json", "binary")
            )
            assert binary_run.outcome_fingerprint == json_run.outcome_fingerprint
            assert binary_run.history_fingerprint == json_run.history_fingerprint
            assert binary_run.messages == json_run.messages

    def test_binary_run_sends_no_json(self, deadlock_prone_system, monkeypatch):
        # Every frame of a binary run — requests, replies, probes,
        # resolves, leader queries, log shipping, history — is binary:
        # a JSON encode anywhere would raise.
        def refuse(self, message):
            raise AssertionError(f"JSON frame sent: {message.get('type')}")

        monkeypatch.setattr(protocol.JsonCodec, "encode_payload", refuse)
        plain = run_cluster_sync(
            deadlock_prone_system, rounds=3, seed=11, max_retries=8, codec="binary"
        )
        replicated = run_replicated_sync(
            deadlock_prone_system, replicas=3, rounds=3, seed=11, max_retries=8, codec="binary"
        )
        for report in (plain, replicated):
            assert report.committed == report.transactions
            assert report.serializable and report.audit_complete

    def test_partial_order_systems_commit_batched(self):
        # Batched shipping must respect poset predecessors across
        # frames (a step rides in a batch only behind acked or
        # co-batched predecessors), so partial-order workloads still
        # commit serializably.
        for seed in (1, 2, 3):
            system = random_system(
                random.Random(seed),
                transactions=3,
                sites=2,
                entities=4,
                entities_per_transaction=3,
                cross_arcs=2,
                two_phase=True,
            )
            report = run_cluster_sync(
                system,
                rounds=2,
                seed=seed,
                max_retries=8,
                codec="binary",
                batch=True,
            )
            assert report.committed == report.transactions, seed
            assert report.serializable and report.audit_complete, seed
