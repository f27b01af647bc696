"""Single-layer probes of the traced pass: codec, transport, simulator.

Each times one layer's public functions on a fixed input, with nothing
else of the stack around it, so a change to that layer shows here first
and the workloads show whether it reached an end-to-end metric.
"""

from __future__ import annotations

import asyncio
import statistics
import time

from repro.cluster import protocol
from repro.cluster.transport import MemoryTransport, TcpTransport
from repro.sim import RandomDriver, run_once

from . import spec
from .spans import Spans
from .workloads import transfer_pair

#: Best of this many passes: a probe lasts milliseconds, so one slow
#: phase of the machine would otherwise decide it.
PASSES = 5


def wire_corpus() -> list[dict]:
    """The frames one transfer commit puts on the wire: single steps
    and their replies, a batch frame, a deadlock probe, a commit ack."""
    txn = {"txn": "T1@r12", "age": 23}
    return [
        protocol.request("lock", 17, entity="x", **txn),
        protocol.reply(17, "granted", entity="x"),
        protocol.request("update", 18, entity="x", step=1, **txn),
        protocol.reply(18, "applied"),
        protocol.request("unlock", 19, entity="x", **txn),
        protocol.reply(19, "released"),
        protocol.request(
            "batch", 24,
            steps=[
                {"id": 21, "op": "lock", "entity": "y"},
                {"id": 22, "op": "update", "entity": "y", "step": 3},
                {"id": 23, "op": "unlock", "entity": "y"},
            ],
            **txn,
        ),
        protocol.reply(24, "batch", results=[
            {"id": 21, "status": "granted", "entity": "y"},
            {"id": 22, "status": "applied"},
            {"id": 23, "status": "released"},
        ]),
        {
            "type": "probe",
            "target": "T2@r12",
            "path": [
                {"txn": "T1@r12", "age": 23, "site": 1},
                {"txn": "T2@r11", "age": 22, "site": 2},
            ],
        },
        protocol.request("commit", 25, txn="T1@r12"),
        protocol.reply(25, "committed"),
    ]


def _best_us_per(count: int, work) -> float:
    best = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - started)
    return best * 1e6 / count


def protocol_layers(loops: int = 200) -> dict:
    corpus = wire_corpus()
    layers = {}
    for name in spec.CODECS:
        codec = protocol.codec_named(name)
        frames = [protocol.encode(message, codec) for message in corpus]
        if [protocol.decode(frame) for frame in frames] != corpus:
            raise AssertionError(f"{name} codec does not round-trip the corpus")

        def encode_all(codec=codec):
            for _ in range(loops):
                for message in corpus:
                    protocol.encode(message, codec)

        def decode_all(frames=frames):
            for _ in range(loops):
                for frame in frames:
                    protocol.decode(frame)

        count = loops * len(corpus)
        layers[f"protocol.encode_us_per_msg.{name}"] = _best_us_per(count, encode_all)
        layers[f"protocol.decode_us_per_msg.{name}"] = _best_us_per(count, decode_all)
        layers[f"protocol.bytes_per_msg.{name}"] = statistics.mean(len(f) for f in frames)
    return layers


async def _echo_roundtrip_us(transport, trips: int) -> float:
    """Median ping round trip through listen/connect/send/recv."""

    async def echo(connection) -> None:
        while (message := await connection.recv()) is not None:
            await connection.send(message)

    await transport.listen(1, echo)
    connection = await transport.connect(1)
    message = protocol.request("ping", 1)
    samples = []
    try:
        for _ in range(trips):
            started = time.perf_counter()
            await connection.send(message)
            await connection.recv()
            samples.append(time.perf_counter() - started)
    finally:
        await connection.close()
        await transport.close()
    return statistics.median(samples) * 1e6


def transport_layers(trips: int = 500) -> dict:
    return {
        "transport.roundtrip_us.memory": asyncio.run(_echo_roundtrip_us(MemoryTransport(), trips)),
        "transport.roundtrip_us.tcp": asyncio.run(_echo_roundtrip_us(TcpTransport(), trips)),
    }


def simulator_layers(seed: int, rounds: int = 100) -> dict:
    """The zero-wire baseline: the transfer pair in the lock-step
    simulator, one process, no messages."""
    system = transfer_pair()

    def simulate():
        for run in range(rounds):
            run_once(system, RandomDriver(seed + run))

    return {"sim.txn_per_s": 1e6 / _best_us_per(rounds * len(system), simulate)}


def run_all(seed: int, spans: Spans) -> dict:
    layers = {}
    for name, probe in (
        ("protocol.codec", protocol_layers),
        ("transport.echo", transport_layers),
        ("sim.run_once", lambda: simulator_layers(seed)),
    ):
        with spans.span(f"probe.{name}"):
            layers.update(probe())
    return layers
