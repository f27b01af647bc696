"""E9a — admission-service throughput: the fingerprint cache.

Series: a fleet of 200+ clustered transactions pushed through the
:class:`repro.service.AdmissionRegistry` twice — cold (empty verdict
cache) and warm (a second fresh registry sharing the warmed cache).
The admitted set must be *identical* to a reference mirror
that calls :func:`repro.core.decide_safety` on every new-vs-accepted
pair directly, with no fingerprints, no cache, and no trivial-pair
fast path.

Results land in ``results/BENCH_service.json`` (machine readable) and
``results/E9a-service-cache.txt`` (prose).
"""

import random
import time

from repro.core import DistributedDatabase, TransactionSystem, decide_safety
from repro.service import AdmissionRegistry, VerdictCache
from repro.workloads import random_transaction

from _series import metrics_snapshot, report, table, write_bench

CLUSTERS = 52
CLUSTER_SIZE = 4
FLEET_SEED = 2026


def clustered_fleet(rng, *, clusters=CLUSTERS, cluster_size=CLUSTER_SIZE):
    """A fleet of ``clusters * cluster_size`` transactions over one
    database.

    Each cluster is a *path*: transaction ``i`` locks the entity pair
    ``(a_i, b_i)`` and the next pair ``(a_i+1, b_i+1)``, so consecutive
    cluster members share exactly two entities (a real Theorem 2
    decision) while everything else is disjoint — the interaction graph
    is a forest of paths and the cycle condition never has work to do.
    Every seventh cluster drops the two-phase discipline, which is what
    lets the fleet contain genuinely unsafe pairs to reject.
    """
    assignment = {}
    for c in range(clusters):
        for i in range(cluster_size + 1):
            assignment[f"c{c}a{i}"] = 1
            assignment[f"c{c}b{i}"] = 2
    database = DistributedDatabase(assignment, sites=2)
    fleet = []
    for c in range(clusters):
        two_phase = c % 7 != 6
        for i in range(cluster_size):
            fleet.append(
                random_transaction(
                    f"c{c}t{i}",
                    database,
                    rng,
                    entities=[
                        f"c{c}a{i}", f"c{c}b{i}",
                        f"c{c}a{i + 1}", f"c{c}b{i + 1}",
                    ],
                    cross_arcs=0 if two_phase else 2,
                    two_phase=two_phase,
                )
            )
    return database, fleet


def reference_admissions(fleet):
    """Mirror the registry with the offline deciders only: a candidate
    is admitted iff every pair with an already-accepted member is safe
    per :func:`decide_safety` and the subsystem of accepted members it
    shares entities with stays safe when it joins."""
    accepted = []
    admitted_names = set()
    for transaction in fleet:
        locked = set(transaction.locked_entities())
        pairwise_safe = all(
            decide_safety(
                TransactionSystem([transaction, member]),
                want_certificate=False,
            ).safe
            for member in accepted
        )
        if not pairwise_safe:
            continue
        neighbours = [
            member for member in accepted
            if locked & set(member.locked_entities())
        ]
        if len(neighbours) >= 2 and not decide_safety(
            TransactionSystem(neighbours + [transaction]),
            want_certificate=False,
        ).safe:
            continue
        accepted.append(transaction)
        admitted_names.add(transaction.name)
    return admitted_names


def admit_all(fleet, *, database, cache):
    """Push the whole fleet through one registry; return the admitted
    names, the elapsed wall time, the stats dict and an observability
    snapshot (per-phase seconds, cache hit rate)."""
    registry = AdmissionRegistry(database=database, cache=cache)
    start = time.perf_counter()
    decisions = [
        registry.admit(transaction, want_certificate=False)
        for transaction in fleet
    ]
    elapsed = time.perf_counter() - start
    admitted = {d.name for d in decisions if d.admitted}
    snapshot = metrics_snapshot(registry.stats, registry.cache)
    return admitted, elapsed, registry.stats_dict(), snapshot


def test_service_cache_warmup(benchmark):
    rng = random.Random(FLEET_SEED)
    database, fleet = clustered_fleet(rng)
    assert len(fleet) >= 200

    cache = VerdictCache()
    cold_admitted, cold_seconds, cold_stats, cold_metrics = admit_all(
        fleet, database=database, cache=cache
    )
    warm_admitted, warm_seconds, warm_stats, warm_metrics = admit_all(
        fleet, database=database, cache=cache
    )
    reference = reference_admissions(fleet)
    speedup = cold_seconds / warm_seconds

    benchmark(
        lambda: admit_all(fleet[:40], database=database, cache=cache)
    )

    rejected = len(fleet) - len(cold_admitted)
    report(
        "E9a-service-cache",
        "admission throughput, cold vs warmed verdict cache "
        f"({len(fleet)} transactions, {CLUSTERS} clusters)",
        table(
            ["run", "seconds", "pairs vetted", "pairs from cache"],
            [
                (
                    "cold", f"{cold_seconds:.3f}",
                    cold_stats["service"]["pairs_vetted"],
                    cold_stats["service"]["pairs_from_cache"],
                ),
                (
                    "warm", f"{warm_seconds:.3f}",
                    warm_stats["service"]["pairs_vetted"],
                    warm_stats["service"]["pairs_from_cache"],
                ),
            ],
        )
        + [
            f"speedup: {speedup:.1f}x",
            f"admitted {len(cold_admitted)}, rejected {rejected}; "
            "identical to per-pair decide_safety: "
            f"{cold_admitted == reference}",
        ],
    )
    write_bench(
        "BENCH_service",
        params={"fleet": len(fleet), "clusters": CLUSTERS},
        samples={
            "cache_warmup": {
                "admitted": len(cold_admitted),
                "rejected": rejected,
                "cold_seconds": round(cold_seconds, 4),
                "warm_seconds": round(warm_seconds, 4),
                "warm_speedup": round(speedup, 2),
                "cold_pairs_vetted": cold_stats["service"]["pairs_vetted"],
                "warm_pairs_from_cache": (
                    warm_stats["service"]["pairs_from_cache"]
                ),
                "identity_with_decide_safety": cold_admitted == reference,
            },
        },
        metrics={"cold": cold_metrics, "warm": warm_metrics},
    )
    assert cold_admitted == warm_admitted == reference
    assert warm_stats["service"]["pairs_vetted"] == 0
    assert speedup >= 5.0
