"""The six workloads, driven through the program's public functions only.

A workload builds its inputs from the seed (*set-up*), then repeats one
fixed-size **unit** — a complete full-stack call, admission included —
for as long as the repetition's time budget lasts.  Every unit is checked
(re-audit of the reported site orders, verdicts against the SAT solver)
outside its timed region.  On the traced pass the full-stack call is
replaced by its public pieces (``Gateway.vet`` then ``run_*_sync(vet=
False)``), each under a benchmark-side span.

What ``--seed`` varies.  Cost across *structure* seeds of the traffic
generator spans 2x (``2pl`` on zipfian keys: 2.6-6.1 s of vetting) to
70x (``tree`` on uniform keys: 1.7-125 s, one seed in eight sends the
unbudgeted gateway into cycle enumeration), so the structure seeds of
``tree-uniform`` and ``admit-2pl-zipf`` are part of the workload's
definition.  The run seed drives what the runtime randomises — the
cluster ``seed=`` (backoff jitter, victim draws) — and every formula
and pair of ``decide-conp``.  (Shuffling ``tree-uniform``'s submission
order by the seed was tried: throughput held, but which transactions
meet moved its p50 latency by 18% between seeds.)
"""

from __future__ import annotations

import random
import re
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.arena.runner import NO_FAULTS, cell_seed, run_cell
from repro.cluster import run_cluster_sync
from repro.cluster.gateway import Gateway
from repro.core import decide_safety
from repro.core.entity import DistributedDatabase
from repro.core.reduction import reduce_cnf_to_pair
from repro.core.schedule import TransactionSystem
from repro.core.step import lock, unlock, update
from repro.core.transaction import Transaction
from repro.logic import is_satisfiable
from repro.obs.metrics import REGISTRY
from repro.replica import run_replicated_sync
from repro.sim.analysis import serializable_from_site_orders
from repro.workloads import (
    VET_CYCLE_LIMIT,
    TrafficSpec,
    generate_workload,
    random_pair_system,
    random_restricted_cnf,
)

from . import spec
from .spans import Spans


@dataclass
class Unit:
    """One checked full-stack call."""

    attempted: int
    completed: int
    wall_s: float
    latencies_ms: list[float]
    #: Work counts; identical between same-seed units on memory.
    counters: dict = field(default_factory=dict)
    #: What ``expected.json`` pins at the default seed.
    oracle: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def transfer_pair() -> TransactionSystem:
    """E14's pair: two 2PL transactions over a two-site database,
    locking ``x`` and ``y`` in opposite orders (deadlock-capable)."""
    database = DistributedDatabase({"x": 1, "y": 2})

    def chain(name: str, entities: list[str]) -> Transaction:
        steps = []
        for entity in entities:
            steps += [lock(entity), update(entity)]
        steps += [unlock(entity) for entity in entities]
        return Transaction(name, database, steps, list(zip(steps, steps[1:])))

    return TransactionSystem([chain("T1", ["x", "y"]), chain("T2", ["y", "x"])])


# Copies of examples/workloads/{uniform-baseline,zipfian-hot}.json with
# the transaction count scaled, so the benchmark reads no file outside
# its own directory.
_MIX = {"entities_per_txn": 2, "long_entities_per_txn": 4, "long_fraction": 0.2}
_CLOSED_6 = {"process": "closed", "concurrency": 6}
UNIFORM_24 = {
    "name": "uniform-baseline", "entities": 12, "sites": 3, "transactions": 24,
    "keys": {"distribution": "uniform"}, "mix": _MIX, "arrival": _CLOSED_6,
}
ZIPFIAN_12 = {
    "name": "zipfian-hot", "entities": 12, "sites": 3, "transactions": 12,
    "keys": {"distribution": "zipfian", "skew": 1.3}, "mix": _MIX, "arrival": _CLOSED_6,
    "latency": {
        "regions": {"1": "us", "2": "us", "3": "eu"},
        "client_region": "us",
        "delay_ticks": {"us": {"us": 0, "eu": 3}, "eu": {"us": 3, "eu": 0}},
    },
}
#: Structure seeds (see the module docstring).  30 gives a vetted-safe
#: tree system at 6.1 messages/commit with 0.015 s of admission; arena
#: seed 0 gives a 2PL cell whose vetting exhausts VET_CYCLE_LIMIT.
TREE_STRUCTURE_SEED = 30
ARENA_SEED = 0


def _series(name: str) -> dict[str, float]:
    """The series of registry metric *name*; one the program no longer
    exposes must stop the benchmark, not read as zero work."""
    metric = REGISTRY.get(name)
    if metric is None:
        raise LookupError(f"{name} is not in repro.obs.metrics.REGISTRY")
    return metric.to_dict().get("series", {})  # none yet: registered, never labelled


def _label(selector: str, label: str) -> str | None:
    found = re.search(rf'{label}="([^"]*)"', selector)
    return found.group(1) if found else None


def message_kinds() -> Counter:
    """Messages the site servers processed in the last run, by kind
    (``repro_cluster_messages_total``; the wire observer's
    per-direction copies of a ``wire_metrics`` run are skipped)."""
    kinds: Counter = Counter()
    for selector, value in _series("repro_cluster_messages_total").items():
        if _label(selector, "direction") is None:
            kinds[_label(selector, "kind")] += value
    unknown = set(kinds) - set(spec.MESSAGE_KINDS) - set(spec.OTHER_KINDS)
    if unknown:
        raise LookupError(f"message kinds the suite does not know: {sorted(unknown)}")
    return kinds


class ClusterWorkload:
    """A transaction system pushed through a cluster runner."""

    runner = staticmethod(run_cluster_sync)
    execute_span = "cluster.execute"
    #: ``Gateway.vet`` as a share of the full-stack call: (least, most).
    vet_share = (0.0, 0.05)

    def __init__(self, workload: spec.WorkloadSpec, *, warm_rounds: int, **run_kwargs) -> None:
        self.spec = workload
        self.run_kwargs = run_kwargs
        self.warm_rounds = warm_rounds
        self.system: TransactionSystem
        self.last_report = None  # of the latest untraced ``execute`` piece

    # -- set-up --------------------------------------------------------
    def build(self, seed: int, spans: Spans) -> None:
        self.run_kwargs["seed"] = seed
        self.system = transfer_pair()

    def gateway(self) -> Gateway | None:
        """The gateway handed to the runner (``None``: its default)."""
        return None

    def warm_system(self) -> TransactionSystem:
        return self.system

    def warm(self) -> None:
        self._full_stack(self.warm_system(), rounds=self.warm_rounds)

    # -- the timed unit ------------------------------------------------
    def _full_stack(self, system: TransactionSystem, **overrides):
        gateway = self.gateway()
        try:
            return self.runner(
                system, vet=True, gateway=gateway, **{**self.run_kwargs, **overrides}
            )
        finally:
            if gateway is not None:
                gateway.close()

    def run_unit(self) -> Unit:
        started = time.perf_counter()
        report = self._full_stack(self.system)
        wall = time.perf_counter() - started
        return self.checked(report, wall)

    def checked(self, report, wall: float) -> Unit:
        """Audit *report* again from its site orders; an incomplete or
        non-serializable history fails every operation of the unit."""
        problems = []
        audited = (
            report.serializable
            and report.audit_complete
            and serializable_from_site_orders(report.site_orders)
        )
        if not audited:
            problems.append(
                f"history failed the re-audit (serializable={report.serializable}, "
                f"audit_complete={report.audit_complete})"
            )
        committed = [o for o in report.outcomes if o.committed]
        if len(committed) < report.transactions:
            ends = Counter(o.outcome for o in report.outcomes if not o.committed)
            problems.append(f"not committed: {dict(ends)}")
        kinds = message_kinds()
        counters = {
            "transactions": report.transactions,
            "committed": len(committed),
            "messages": report.messages,
            "retries": report.retries_total,
            "dropped": report.dropped,
            **{f"messages.{kind}": count for kind, count in sorted(kinds.items())},
        }
        decision = report.gateway
        oracle = {}
        if decision is not None:
            oracle = {
                "mode": decision.mode,
                "admitted": len(decision.admitted),
                "rejected": len(decision.rejected),
            }
        if self.spec.deterministic:
            oracle["history"] = report.history_fingerprint[:16]
            oracle["outcomes"] = report.outcome_fingerprint[:16]
        return Unit(
            attempted=report.transactions,
            completed=len(committed) if audited else 0,
            wall_s=wall,
            latencies_ms=[o.seconds * 1e3 for o in committed],
            counters=counters,
            oracle=oracle,
            problems=problems,
        )

    # -- the traced unit -----------------------------------------------
    def run_traced_unit(self, spans: Spans) -> dict:
        gateway = self.gateway() or Gateway()
        try:
            with spans.span("gateway.vet") as vet:
                decision = gateway.vet(self.system)
            service = gateway.stats_dict()["service"]
        finally:
            gateway.close()
        with spans.span(self.execute_span) as plain:
            report = self.last_report = self.runner(self.system, vet=False, **self.run_kwargs)
        kinds = message_kinds()
        problems = self.checked(report, plain.seconds).problems
        with spans.span(self.execute_span + ".wired") as wired:
            wired_report = self.runner(
                self.system, vet=False, wire_metrics=True, **self.run_kwargs
            )
        problems += self.checked(wired_report, wired.seconds).problems
        commits = max(1, report.committed)
        phases = service["phase_seconds"]
        total = sum(kinds.values()) - kinds["history"]
        waits = [row for row in report.contention if row.get("waits")]
        layers = {
            "gateway.vet_s": vet.seconds,
            "service.fingerprint_s": phases.get("fingerprint", 0.0),
            "service.pairs_s": phases.get("pairs", 0.0),
            "service.cycles_s": phases.get("cycles", 0.0),
            "service.pairs_vetted": service["pairs_vetted"],
            "service.pairs_trivial": service["pairs_trivial"],
            "service.pairs_from_cache": service["pairs_from_cache"],
            "service.cycles_checked": service["cycles_checked"],
            "service.budget_exceeded": sum(
                1 for d in decision.decisions if d.verdict.method == "budget-exceeded"
            ),
            "service.admitted_share": len(decision.admitted) / len(self.system),
            f"{self.execute_span}_s": plain.seconds,
            "cluster.messages_per_commit": report.messages / commits,
            **{f"cluster.msgs_per_commit.{k}": kinds[k] / commits for k in spec.MESSAGE_KINDS},
            "cluster.useful_msg_share": sum(kinds[k] for k in spec.USEFUL_KINDS) / total,
            "cluster.attempts_per_commit": 1 + report.retries_total / commits,
            "cluster.dropped": report.dropped,
            "site.waits_per_commit": sum(row["waits"] for row in waits) / commits,
            "site.max_queue_depth": max((row["queue_depth_max"] for row in waits), default=0),
            "site.wait_p95_ms": max((row["wait_ms_p95"] for row in waits), default=0.0),
            "obs.trace_overhead_share": (wired.seconds - plain.seconds) / plain.seconds,
            **wire_layers(max(1, wired_report.committed)),
        }
        return {
            "layers": layers,
            "labels": {"gateway.mode": decision.mode},
            "pieces_s": vet.seconds + plain.seconds,
            "problems": problems,
        }

    def extras(self, spans: Spans) -> tuple[dict, dict, list[str]]:
        """Once per traced repetition: more layer metrics, wall times
        of reference calls the pieces are checked against by name, and
        problems found in those calls (none, for a plain cluster)."""
        return {}, {}, []

    def design_problems(self, layers: dict, vet_share: float) -> list[str]:
        """Why the workload is in the suite, checked on the traced
        numbers (*vet_share*: ``gateway.vet_s`` over the wall of the
        full-stack call, median of the turns): one that stops stressing
        its layer has to be re-sized (in a benchmark-only PR), not
        carried along unnoticed."""
        least, most = self.vet_share
        if least <= vet_share <= most:
            return []
        return [
            f"gateway.vet_s is {vet_share:.1%} of the full-stack call, "
            f"outside {least:.0%}-{most:.0%}"
        ]


def wire_layers(commits: int) -> dict:
    """Stage time, bytes and batching of the last ``wire_metrics`` run,
    per commit, read off the wire observer's registry series."""
    stage_ns: Counter = Counter()
    for selector, value in _series("repro_cluster_latency_ns").items():
        stage_ns[_label(selector, "stage")] += value["sum"]

    def sent(name: str, kind: str | None = None) -> float:
        return sum(
            value for selector, value in _series(name).items()
            if _label(selector, "direction") == "sent"
            and (kind is None or _label(selector, "kind") == kind)
        )

    missing = set(spec.STAGES) - set(stage_ns)
    if missing:
        raise LookupError(f"repro_cluster_latency_ns has no stage {sorted(missing)}")
    layers = {
        **{f"wire.{s}_us_per_commit": stage_ns[s] / 1e3 / commits for s in spec.STAGES},
        "wire.bytes_per_commit": sent("repro_cluster_bytes_total") / commits,
    }
    frames = sent("repro_cluster_messages_total", "batch")
    if frames:
        layers["wire.steps_per_batch_frame"] = sent("repro_cluster_batched_steps_total") / frames
    return layers


class TransferMem(ClusterWorkload):
    def design_problems(self, layers: dict, vet_share: float) -> list[str]:
        problems = super().design_problems(layers, vet_share)
        share = layers["cluster.msgs_per_commit.probe"] / layers["cluster.messages_per_commit"]
        if share < 0.40:
            problems.append(f"probes are {share:.1%} of the messages, under 40%")
        return problems


class TreeUniform(ClusterWorkload):
    def design_problems(self, layers: dict, vet_share: float) -> list[str]:
        # The tree protocol cannot deadlock: nothing to resolve or retry.
        problems = super().design_problems(layers, vet_share)
        for name, quiet in (("msgs_per_commit.resolve", 0), ("attempts_per_commit", 1)):
            if layers[f"cluster.{name}"] != quiet:
                problems.append(f"cluster.{name} is {layers[f'cluster.{name}']}, not {quiet}")
        return problems

    def build(self, seed: int, spans: Spans) -> None:
        self.run_kwargs["seed"] = seed
        with spans.span("workloads.generate"):
            traffic = generate_workload(
                TrafficSpec.from_dict(UNIFORM_24), policy="tree", seed=TREE_STRUCTURE_SEED
            )
        self.system = traffic.system
        self.run_kwargs["concurrency"] = traffic.concurrency


class AdmitTwoPhaseZipf(ClusterWorkload):
    """The arena's ``2pl x zipfian-hot x none`` cell, called through the
    pieces ``run_cell`` is made of so per-transaction outcomes (latency,
    site orders for the re-audit) stay visible; the traced pass checks
    the pieces against real ``run_cell`` calls."""

    vet_share = (0.80, float("inf"))  # a noisy turn can read over 100%

    def build(self, seed: int, spans: Spans) -> None:
        self.traffic_spec = TrafficSpec.from_dict(ZIPFIAN_12)
        with spans.span("workloads.generate"):
            traffic = generate_workload(
                self.traffic_spec, policy="2pl",
                seed=cell_seed(ARENA_SEED, "2pl", self.traffic_spec.name, NO_FAULTS),
            )
        self.system = traffic.system
        self.run_kwargs = {**traffic.cluster_kwargs(), "seed": seed}

    def gateway(self) -> Gateway:
        return Gateway(cycle_limit=VET_CYCLE_LIMIT)

    def warm_system(self) -> TransactionSystem:
        # A third of the transactions: vetting cost grows much faster
        # than linearly, so this stays under a tenth of one unit.
        return TransactionSystem(list(self.system.transactions)[:4])

    def extras(self, spans: Spans) -> tuple[dict, dict, list[str]]:
        walls, problems = [], []
        for _ in range(3):
            with spans.span("arena.run_cell") as cell:
                result = run_cell(self.traffic_spec, policy="2pl", seed=ARENA_SEED)
            walls.append(cell.seconds)
            if not (result.serializable and result.audit_complete):
                problems.append("arena.run_cell: history failed its audit")
        return {}, {"arena_cell": statistics.median(walls)}, problems


class ReplicaTransfer(ClusterWorkload):
    runner = staticmethod(run_replicated_sync)
    execute_span = "replica.execute"

    def run_traced_unit(self, spans: Spans) -> dict:
        traced = super().run_traced_unit(spans)
        layers = traced["layers"]
        layers["replica.messages_per_commit"] = layers["cluster.messages_per_commit"]
        return traced

    def extras(self, spans: Spans) -> tuple[dict, dict, list[str]]:
        with spans.span("replica.execute.single") as alone:
            single = run_replicated_sync(
                self.system, vet=False, **{**self.run_kwargs, "replicas": 1}
            )
        full = self.last_report
        return {
            "replica.msg_amplification": full.messages / single.messages,
            "replica.failovers": full.failovers,
            "replica.elections": len(full.elections),
        }, {}, self.checked(single, alone.seconds).problems

    def design_problems(self, layers: dict, vet_share: float) -> list[str]:
        problems = super().design_problems(layers, vet_share)
        if layers["replica.msg_amplification"] < 2:
            problems.append(
                f"replica.msg_amplification is {layers['replica.msg_amplification']:.2f}, under 2"
            )
        return problems


# ----------------------------------------------------------------------
# decide-conp: repro.core alone
# ----------------------------------------------------------------------
#: One unit, 47 pairs, sized so that both latency percentiles fall well
#: inside one kind of pair whatever the seed draws: 10 two-site pairs
#: (Theorem 2), 20 two-phase and 10 free-form three-site pairs
#: (Theorem 1; exact, ~1 ms), 6 K=3 reduction pairs (~75 ms) and 1 K=4
#: (~380 ms).  The median is a Theorem-1 pair (ranks 11-30 of 47), p90
#: a K=3 pair (ranks 41-46); the K=4 pair is 45% of the unit's time, so
#: it moves throughput.  Every clause has three literals, which fixes
#: the reduced pair's size per K and keeps cost steady across seeds.
CONP_FORMULAS = ((3, 6), (4, 1))
CONP_THREE_SITE = 30
CONP_TWO_SITE = 10


class DecideConp:
    def __init__(self, workload: spec.WorkloadSpec) -> None:
        self.spec = workload
        #: (kind, system, expected safety or None)
        self.items: list[tuple[str, TransactionSystem, bool | None]] = []

    def build(self, seed: int, spans: Spans) -> None:
        rng = random.Random(f"decide-conp/{seed}")
        with spans.span("core.reduce"):
            for variables, count in CONP_FORMULAS:
                for _ in range(count):
                    formula = random_restricted_cnf(
                        rng, variables=variables, clauses=variables, clause_size=(3, 3)
                    )
                    pair = reduce_cnf_to_pair(formula)
                    self.items.append((
                        f"k{variables}",
                        TransactionSystem([pair.first, pair.second]),
                        not is_satisfiable(formula),  # Theorem 3: unsafe <=> satisfiable
                    ))
        with spans.span("workloads.generate"):
            for index in range(CONP_THREE_SITE):
                two_phase = index % 3 != 0
                pair = random_pair_system(rng, sites=3, entities=6, two_phase=two_phase)
                # Two-phase locking is safe at any number of sites (§6).
                self.items.append(("3site", pair, True if two_phase else None))
            for index in range(CONP_TWO_SITE):
                pair = random_pair_system(rng, sites=2, entities=4, two_phase=index % 2 == 0)
                self.items.append(("2site", pair, None))
        rng.shuffle(self.items)

    def warm(self) -> None:
        for kind, system, _ in self.items:
            if kind not in ("k3", "k4"):
                decide_safety(system, want_certificate=False)
        decide_safety(next(s for k, s, _ in self.items if k == "k3"), want_certificate=False)

    def _decide_all(self, spans: Spans | None = None):
        """(unit wall, per-call seconds, verdicts) over every item."""
        seconds, verdicts = [], []
        clock = time.perf_counter
        started = clock()
        for _, system, _ in self.items:
            if spans is None:
                before = clock()
                verdict = decide_safety(system, want_certificate=False)
                seconds.append(clock() - before)
            else:
                with spans.span("core.decide") as call:
                    verdict = decide_safety(system, want_certificate=False)
                seconds.append(call.seconds)
            verdicts.append(verdict)
        return clock() - started, seconds, verdicts

    def _wrong(self, verdicts) -> list[str]:
        return [
            f"{kind}#{index}: safe={verdict.safe}, expected {expected}"
            for index, ((kind, _, expected), verdict) in enumerate(zip(self.items, verdicts))
            if expected is not None and verdict.safe != expected
        ]

    def run_unit(self) -> Unit:
        wall, seconds, verdicts = self._decide_all()
        wrong = self._wrong(verdicts)
        methods = Counter(verdict.method for verdict in verdicts)
        return Unit(
            attempted=len(self.items),
            completed=len(self.items) - len(wrong),
            wall_s=wall,
            latencies_ms=[s * 1e3 for s in seconds],
            counters={f"decisions.{m}": n for m, n in sorted(methods.items())},
            oracle={"verdicts": "".join("S" if v.safe else "U" for v in verdicts)},
            problems=wrong,
        )

    def run_traced_unit(self, spans: Spans) -> dict:
        wall, seconds, verdicts = self._decide_all(spans)
        by_method: dict[str, list[float]] = {}
        for verdict, took in zip(verdicts, seconds):
            by_method.setdefault(verdict.method, []).append(took * 1e3)
        layers = {}
        for method in spec.METHODS:  # a rung no pair reaches is a KeyError
            layers[f"core.decide_ms_p50.{method}"] = statistics.median(by_method[method])
            layers[f"core.decisions.{method}"] = len(by_method[method])
        return {
            "layers": layers, "labels": {}, "pieces_s": wall, "problems": self._wrong(verdicts)
        }

    def extras(self, spans: Spans) -> tuple[dict, dict, list[str]]:
        return {}, {}, []

    def design_problems(self, layers: dict, vet_share: None) -> list[str]:
        return []


def make(name: str):
    """A fresh workload object for *name*."""
    workload = spec.WORKLOAD_BY_NAME[name]
    transfer = dict(max_retries=16, concurrency=4, codec="json")
    if name == "transfer-mem":
        return TransferMem(
            workload, warm_rounds=25, transport="memory", rounds=50, batch=False, **transfer
        )
    if name == "transfer-tcp-batch":
        return ClusterWorkload(
            workload, warm_rounds=50, transport="tcp", rounds=100, batch=True,
            request_timeout=30.0, **transfer,
        )
    if name == "tree-uniform":
        return TreeUniform(workload, warm_rounds=15, transport="memory", rounds=30)
    if name == "admit-2pl-zipf":
        return AdmitTwoPhaseZipf(workload, warm_rounds=1)
    if name == "replica3-transfer":
        return ReplicaTransfer(
            workload, warm_rounds=12, replicas=3, rounds=25, max_retries=16, concurrency=4
        )
    return DecideConp(workload)
