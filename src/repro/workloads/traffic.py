"""Seeded traffic models for the cluster runtime.

The repo's earlier benchmarks replay *uniform synthetic rounds*: every
transaction clone touches the same entities with the same shape, and a
fixed pool of coordinators drives them closed-loop.  Production traffic
is none of those things.  This module is the missing layer: a
:class:`TrafficSpec` describes a workload the way a load generator
would —

* **key popularity** — uniform, or Zipfian hot-key skew (a few entities
  take most of the locks; the classic contention regime);
* **transaction mix** — short transactions with a configurable fraction
  of long-lived ones touching more entities (long lock-hold windows);
* **arrival process** — *closed-loop* (a fixed pool of concurrent
  clients, the classical benchmark shape) or *open-loop* Poisson
  arrivals at a target offered load, which keeps submitting work even
  when the cluster falls behind (sustained overload);
* **multi-region latency** — sites mapped to named regions with a
  per-region-pair delay matrix, injected into the cluster transport
  (:class:`repro.cluster.transport.LatencyMatrix`).

:func:`generate_workload` turns a spec into a concrete
:class:`TrafficWorkload` — a §2-valid :class:`~repro.core.schedule.
TransactionSystem` of distinct instances plus an arrival schedule —
under one of three locking **policies** (:data:`POLICIES`):

* ``"2pl"`` — two-phase transactions (all locks precede all unlocks);
  §6's always-safe family;
* ``"tree"`` — crab-walk tree-protocol transactions over a heap-shaped
  entity hierarchy (hottest key at the root); the safe non-two-phase
  family;
* ``"vetted-optimal"`` — early-unlock interleaved transactions filtered
  through an admission registry at generation time: candidates are
  drawn without any two-phase or tree discipline and kept only when
  Proposition-2 vetting certifies them safe against the already-kept
  set.  Nothing guarantees safety *by shape* — the certificate is the
  vetting itself, which is the gateway's whole premise.

Everything is a pure function of ``(spec, policy, seed)``: the same
triple reproduces the same transaction system and the same arrival
schedule, byte for byte — the arena's determinism fingerprints depend
on it.  Specs round-trip through JSON (:meth:`TrafficSpec.load` /
:meth:`TrafficSpec.to_dict`) with FaultPlan-style load-time validation:
unknown keys and malformed values raise
:class:`~repro.errors.TrafficSpecError`.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field

from ..core.schedule import TransactionSystem
from ..core.transaction import Transaction
from ..errors import TrafficSpecError
from ..policies.tree import crab_walk
from .random_transactions import random_database, random_transaction

#: Locking policies the generator can impose on a workload.
POLICIES = ("2pl", "tree", "vetted-optimal")

#: Per-admission cycle-vetting budget for ``vetted-optimal`` generation
#: (and the arena's per-cell gateway, which must agree with it so a
#: workload admitted at generation time re-admits inside its cell).
#: Zipfian traffic can make the interaction graph dense, and simple-
#: cycle enumeration is factorial in the dense component; exhausting
#: the budget counts as a rejection, never as an unsound admit.
VET_CYCLE_LIMIT = 2000

#: Candidate draws allowed per kept ``vetted-optimal`` transaction
#: before the generator settles for a smaller system.
_VET_ATTEMPT_FACTOR = 20

#: Key-popularity distributions.
KEY_DISTRIBUTIONS = ("uniform", "zipfian")

#: Arrival processes.
ARRIVAL_PROCESSES = ("closed", "open")


def _require_keys(payload: dict, known: set[str], where: str) -> None:
    if not isinstance(payload, dict):
        raise TrafficSpecError(
            f"{where} must be a JSON object, not {type(payload).__name__}"
        )
    unknown = set(payload) - known
    if unknown:
        raise TrafficSpecError(
            f"unknown {where} keys {sorted(unknown)} (known: {sorted(known)})"
        )


def zipf_weights(count: int, skew: float) -> list[float]:
    """Normalized Zipf(s) popularity weights for *count* keys, hottest
    first: ``w_i ∝ 1 / (i + 1) ** skew``."""
    if count < 1:
        raise TrafficSpecError(f"need at least one key, got {count}")
    raw = [1.0 / (index + 1) ** skew for index in range(count)]
    total = sum(raw)
    return [weight / total for weight in raw]


@dataclass(frozen=True)
class KeyModel:
    """How lock targets are drawn: ``uniform``, or ``zipfian`` with
    *skew* > 0 (larger = hotter head)."""

    distribution: str = "uniform"
    skew: float = 1.0

    def __post_init__(self) -> None:
        if self.distribution not in KEY_DISTRIBUTIONS:
            raise TrafficSpecError(
                f"unknown key distribution {self.distribution!r} "
                f"(choose from {KEY_DISTRIBUTIONS})"
            )
        if self.distribution == "zipfian" and self.skew <= 0:
            raise TrafficSpecError(
                f"zipfian skew must be positive, got {self.skew}"
            )

    def weights(self, count: int) -> list[float]:
        """Per-key popularity weights, hottest first."""
        if self.distribution == "uniform":
            return [1.0 / count] * count
        return zipf_weights(count, self.skew)

    def to_dict(self) -> dict:
        payload: dict = {"distribution": self.distribution}
        if self.distribution == "zipfian":
            payload["skew"] = self.skew
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "KeyModel":
        _require_keys(payload, {"distribution", "skew"}, "keys")
        return cls(**payload)


@dataclass(frozen=True)
class MixModel:
    """Short transactions touch *entities_per_txn* entities; a
    *long_fraction* of arrivals are long-lived and touch
    *long_entities_per_txn* instead."""

    entities_per_txn: int = 2
    long_entities_per_txn: int | None = None
    long_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.entities_per_txn < 1:
            raise TrafficSpecError(
                f"entities_per_txn must be >= 1, got {self.entities_per_txn}"
            )
        if not 0.0 <= self.long_fraction <= 1.0:
            raise TrafficSpecError(
                f"long_fraction must be in [0, 1], got {self.long_fraction}"
            )
        if self.long_fraction > 0 and self.long_entities_per_txn is None:
            raise TrafficSpecError(
                "long_fraction > 0 needs long_entities_per_txn"
            )
        if (
            self.long_entities_per_txn is not None
            and self.long_entities_per_txn < self.entities_per_txn
        ):
            raise TrafficSpecError(
                "long transactions must touch at least as many entities "
                f"as short ones ({self.long_entities_per_txn} < "
                f"{self.entities_per_txn})"
            )

    def to_dict(self) -> dict:
        payload: dict = {"entities_per_txn": self.entities_per_txn}
        if self.long_entities_per_txn is not None:
            payload["long_entities_per_txn"] = self.long_entities_per_txn
        if self.long_fraction:
            payload["long_fraction"] = self.long_fraction
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MixModel":
        _require_keys(
            payload,
            {"entities_per_txn", "long_entities_per_txn", "long_fraction"},
            "mix",
        )
        return cls(**payload)


@dataclass(frozen=True)
class ArrivalModel:
    """``closed``: a fixed pool of *concurrency* clients, each starting
    its next transaction when the previous finishes.  ``open``: Poisson
    arrivals at *rate_per_1000_ticks* on the transport tick clock,
    independent of completions — the offered load stays constant even
    when the cluster saturates."""

    process: str = "closed"
    concurrency: int = 8
    rate_per_1000_ticks: float | None = None

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise TrafficSpecError(
                f"unknown arrival process {self.process!r} "
                f"(choose from {ARRIVAL_PROCESSES})"
            )
        if self.process == "closed" and self.concurrency < 1:
            raise TrafficSpecError(
                f"closed-loop concurrency must be >= 1, got {self.concurrency}"
            )
        if self.process == "open" and (
            self.rate_per_1000_ticks is None or self.rate_per_1000_ticks <= 0
        ):
            raise TrafficSpecError(
                "open-loop arrivals need a positive rate_per_1000_ticks"
            )

    def to_dict(self) -> dict:
        payload: dict = {"process": self.process}
        if self.process == "closed":
            payload["concurrency"] = self.concurrency
        else:
            payload["rate_per_1000_ticks"] = self.rate_per_1000_ticks
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ArrivalModel":
        _require_keys(
            payload,
            {"process", "concurrency", "rate_per_1000_ticks"},
            "arrival",
        )
        return cls(**payload)


@dataclass(frozen=True)
class LatencyModel:
    """Sites mapped to named *regions*, clients homed in
    *client_region*, and a per-ordered-pair *delay_ticks* matrix applied
    to every frame a client or site sends across regions."""

    regions: dict[int, str] = field(default_factory=dict)
    client_region: str = "local"
    delay_ticks: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.regions:
            raise TrafficSpecError("a latency model needs a site -> region map")
        used = sorted(set(self.regions.values()) | {self.client_region})
        for origin in used:
            row = self.delay_ticks.get(origin)
            if row is None:
                raise TrafficSpecError(
                    f"latency delay_ticks has no row for region {origin!r}"
                )
            for destination in used:
                ticks = row.get(destination)
                if ticks is None:
                    raise TrafficSpecError(
                        f"latency delay_ticks[{origin!r}] lacks an entry "
                        f"for region {destination!r}"
                    )
                if not isinstance(ticks, int) or ticks < 0:
                    raise TrafficSpecError(
                        f"latency delay_ticks[{origin!r}][{destination!r}] "
                        f"must be a non-negative integer, got {ticks!r}"
                    )

    def validate_sites(self, sites: int) -> None:
        """Every site ``1..sites`` must have a region."""
        missing = [site for site in range(1, sites + 1) if site not in self.regions]
        if missing:
            raise TrafficSpecError(
                f"latency regions missing sites {missing}"
            )
        unknown = [site for site in self.regions if not 1 <= site <= sites]
        if unknown:
            raise TrafficSpecError(
                f"latency regions name unknown sites {unknown} "
                f"(database has 1..{sites})"
            )

    def matrix(self):
        """The runtime-side :class:`repro.cluster.transport.
        LatencyMatrix` equivalent of this model."""
        from ..cluster.transport import LatencyMatrix

        return LatencyMatrix(
            regions=dict(self.regions),
            delay_ticks={
                origin: dict(row) for origin, row in self.delay_ticks.items()
            },
            client_region=self.client_region,
        )

    def to_dict(self) -> dict:
        return {
            "regions": {str(site): region for site, region in sorted(self.regions.items())},
            "client_region": self.client_region,
            "delay_ticks": {
                origin: dict(sorted(row.items()))
                for origin, row in sorted(self.delay_ticks.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LatencyModel":
        _require_keys(
            payload, {"regions", "client_region", "delay_ticks"}, "latency"
        )
        regions_raw = payload.get("regions", {})
        if not isinstance(regions_raw, dict):
            raise TrafficSpecError("latency regions must be an object")
        try:
            regions = {int(site): str(region) for site, region in regions_raw.items()}
        except (TypeError, ValueError):
            raise TrafficSpecError(
                f"latency regions keys must be site numbers, got "
                f"{sorted(regions_raw)}"
            ) from None
        return cls(
            regions=regions,
            client_region=payload.get("client_region", "local"),
            delay_ticks=payload.get("delay_ticks", {}),
        )


@dataclass(frozen=True)
class TrafficSpec:
    """One workload the arena (or ``cluster run --workload``) can run."""

    name: str
    entities: int
    sites: int
    transactions: int
    keys: KeyModel = field(default_factory=KeyModel)
    mix: MixModel = field(default_factory=MixModel)
    arrival: ArrivalModel = field(default_factory=ArrivalModel)
    latency: LatencyModel | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TrafficSpecError("a traffic spec needs a name")
        if self.entities < 1 or self.sites < 1:
            raise TrafficSpecError(
                f"need at least one entity and one site, got "
                f"{self.entities} entities / {self.sites} sites"
            )
        if self.transactions < 1:
            raise TrafficSpecError(
                f"need at least one transaction, got {self.transactions}"
            )
        if self.latency is not None:
            self.latency.validate_sites(self.sites)

    def scaled(self, *, transactions: int) -> "TrafficSpec":
        """This spec with a different transaction count (quick-mode
        benchmark runs shrink the committed specs this way)."""
        return dataclasses.replace(self, transactions=transactions)

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "entities": self.entities,
            "sites": self.sites,
            "transactions": self.transactions,
            "keys": self.keys.to_dict(),
            "mix": self.mix.to_dict(),
            "arrival": self.arrival.to_dict(),
        }
        if self.latency is not None:
            payload["latency"] = self.latency.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TrafficSpec":
        """Build a spec from parsed JSON; raises
        :class:`~repro.errors.TrafficSpecError` on malformed input."""
        _require_keys(
            payload,
            {
                "name",
                "entities",
                "sites",
                "transactions",
                "keys",
                "mix",
                "arrival",
                "latency",
            },
            "traffic spec",
        )
        for key in ("name", "entities", "sites", "transactions"):
            if key not in payload:
                raise TrafficSpecError(f"traffic spec lacks required key {key!r}")
        try:
            return cls(
                name=payload["name"],
                entities=payload["entities"],
                sites=payload["sites"],
                transactions=payload["transactions"],
                keys=KeyModel.from_dict(payload.get("keys", {"distribution": "uniform"})),
                mix=MixModel.from_dict(payload.get("mix", {})),
                arrival=ArrivalModel.from_dict(payload.get("arrival", {})),
                latency=(
                    LatencyModel.from_dict(payload["latency"])
                    if payload.get("latency") is not None
                    else None
                ),
            )
        except TypeError as exc:
            raise TrafficSpecError(f"malformed traffic spec: {exc}") from None

    @classmethod
    def load(cls, path: str) -> "TrafficSpec":
        """Read a spec from a JSON file (mirrors
        :meth:`repro.faults.FaultPlan.load`)."""
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise TrafficSpecError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
@dataclass
class TrafficWorkload:
    """A concrete workload: distinct transaction instances plus the
    schedule and runtime knobs that drive them."""

    spec: TrafficSpec
    policy: str
    seed: int
    system: TransactionSystem
    #: Per-instance start ticks (open-loop), ``None`` for closed-loop.
    arrivals: list[int] | None
    #: Closed-loop client-pool size (ignored for open-loop runs).
    concurrency: int
    #: Instance names of the long-lived transactions in the mix.
    long_transactions: list[str] = field(default_factory=list)

    def cluster_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.cluster.run_cluster` /
        ``run_cluster_sync`` that replay this workload's arrival process
        and latency model."""
        kwargs: dict = {
            "rounds": 1,
            "concurrency": self.concurrency,
            "arrivals": self.arrivals,
        }
        if self.spec.latency is not None:
            kwargs["latency"] = self.spec.latency.matrix()
        return kwargs


def _weighted_sample(
    rng: random.Random, names: list[str], weights: list[float], count: int
) -> list[str]:
    """*count* distinct names drawn without replacement, probability
    proportional to weight."""
    pool = list(zip(names, weights))
    chosen: list[str] = []
    for _ in range(min(count, len(pool))):
        total = sum(weight for _, weight in pool)
        mark = rng.random() * total
        acc = 0.0
        for index, (name, weight) in enumerate(pool):
            acc += weight
            if mark < acc or index == len(pool) - 1:
                chosen.append(name)
                del pool[index]
                break
    return chosen


def _heap_parent_of(names: list[str]) -> dict[str, str | None]:
    """A heap-shaped tree over *names* (index ``i``'s parent is
    ``(i - 1) // 2``); with popularity-sorted names the hottest key is
    the root, which is where the tree protocol concentrates traffic
    anyway."""
    return {
        name: None if index == 0 else names[(index - 1) // 2]
        for index, name in enumerate(names)
    }


def _tree_transaction(
    name: str,
    database,
    parent_of: dict[str, str | None],
    children_of: dict[str, list[str]],
    weights_by_name: dict[str, float],
    rng: random.Random,
    walk_length: int,
) -> Transaction:
    """A crab-walk tree-protocol transaction: lock the child while
    holding the parent, release the parent — descending from a
    popularity-weighted start node with children chosen the same way.

    The protocol allows the *first* lock anywhere in the tree, and
    starting every walk at the root would make all transactions share
    it — a complete interaction graph whose Proposition-2 cycle vetting
    blows up combinatorially.  Weighted starts keep the hot head hot
    while leaving the interaction graph as sparse as the skew allows.
    """
    start = _weighted_sample(
        rng,
        list(parent_of),
        [weights_by_name[node] for node in parent_of],
        1,
    )[0]
    path = [start]
    cursor = start
    for _ in range(walk_length - 1):
        children = children_of.get(cursor, [])
        if not children:
            break
        picked = _weighted_sample(
            rng, children, [weights_by_name[child] for child in children], 1
        )
        cursor = picked[0]
        path.append(cursor)
    return crab_walk(name, database, path)


def _vetted_instances(
    spec: TrafficSpec,
    database,
    names: list[str],
    weights: list[float],
    rng: random.Random,
    draw_shape,
) -> tuple[list[Transaction], list[str]]:
    """Admission-filtered early-unlock transactions.

    Candidates are drawn with freely interleaved site chains (no
    two-phase or tree discipline — each entity's lock is released as
    soon as its update lands) and admitted one by one through a fresh
    :class:`~repro.service.registry.AdmissionRegistry`; rejected
    candidates, including vetting-budget exhaustions, are discarded and
    redrawn.  After ``transactions × _VET_ATTEMPT_FACTOR`` draws the
    generator settles for the smaller admitted set rather than loop
    forever on a spec too contended to fill.
    """
    # Lazy: the admission service is only needed for this one policy,
    # and nothing else in the workloads package depends on it.
    from ..errors import VettingBudgetError
    from ..service.registry import AdmissionRegistry

    registry = AdmissionRegistry(cycle_limit=VET_CYCLE_LIMIT)
    instances: list[Transaction] = []
    long_names: list[str] = []
    attempts_left = spec.transactions * _VET_ATTEMPT_FACTOR
    while len(instances) < spec.transactions and attempts_left > 0:
        attempts_left -= 1
        is_long, touched = draw_shape()
        name = f"T{len(instances) + 1}"
        chosen = _weighted_sample(rng, names, weights, touched)
        candidate = random_transaction(
            name,
            database,
            rng,
            entities=chosen,
            cross_arcs=0,
            two_phase=False,
        )
        try:
            decision = registry.admit(candidate, want_certificate=False)
        except VettingBudgetError:
            continue
        if not decision.admitted:
            continue
        if is_long:
            long_names.append(name)
        instances.append(candidate)
    return instances, long_names


def generate_workload(
    spec: TrafficSpec, *, policy: str = "2pl", seed: int = 0
) -> TrafficWorkload:
    """Instantiate *spec* under *policy* with *seed*.

    Deterministic: the same ``(spec, policy, seed)`` triple yields an
    identical transaction system (same step strings, same poset arcs)
    and an identical arrival schedule.  Every instance satisfies the
    paper's §2 constraints by construction — the
    :class:`~repro.core.transaction.Transaction` constructor validates
    each one.
    """
    if policy not in POLICIES:
        raise TrafficSpecError(
            f"unknown policy {policy!r} (choose from {POLICIES})"
        )
    rng = random.Random(f"{seed}/{spec.name}/{policy}")
    database = random_database(rng, entities=spec.entities, sites=spec.sites)
    names = sorted(database.entities, key=lambda n: int(n[1:]))
    weights = spec.keys.weights(len(names))
    weights_by_name = dict(zip(names, weights))
    parent_of = _heap_parent_of(names)
    children_of: dict[str, list[str]] = {}
    for child, parent in parent_of.items():
        if parent is not None:
            children_of.setdefault(parent, []).append(child)

    def draw_shape() -> tuple[bool, int]:
        is_long = (
            spec.mix.long_fraction > 0
            and rng.random() < spec.mix.long_fraction
        )
        touched = (
            spec.mix.long_entities_per_txn if is_long else spec.mix.entities_per_txn
        )
        return is_long, min(touched or 1, len(names))

    instances: list[Transaction] = []
    long_names: list[str] = []
    if policy == "vetted-optimal":
        instances, long_names = _vetted_instances(
            spec, database, names, weights, rng, draw_shape
        )
    else:
        for index in range(1, spec.transactions + 1):
            is_long, touched = draw_shape()
            instance_name = f"T{index}"
            if policy == "tree":
                instance = _tree_transaction(
                    instance_name,
                    database,
                    parent_of,
                    children_of,
                    weights_by_name,
                    rng,
                    walk_length=touched,
                )
            else:
                chosen = _weighted_sample(rng, names, weights, touched)
                instance = random_transaction(
                    instance_name,
                    database,
                    rng,
                    entities=chosen,
                    cross_arcs=0,
                    two_phase=True,
                )
            if is_long:
                long_names.append(instance_name)
            instances.append(instance)

    arrivals: list[int] | None = None
    if spec.arrival.process == "open":
        rate_per_tick = spec.arrival.rate_per_1000_ticks / 1000.0
        clock = 0.0
        arrivals = []
        for _ in instances:
            clock += rng.expovariate(rate_per_tick)
            arrivals.append(int(round(clock)))

    return TrafficWorkload(
        spec=spec,
        policy=policy,
        seed=seed,
        system=TransactionSystem(instances),
        arrivals=arrivals,
        concurrency=spec.arrival.concurrency,
        long_transactions=long_names,
    )
