"""E16 — replica failover: recovery time and throughput vs group size.

Series: the safe two-site transfer pair run on the replicated runtime
(:mod:`repro.replica`) with 1, 3, and 5 replicas per logical site,
under a *permanent* leader kill on site 1 at logical time 40.  Each
leg reports committed transactions, throughput, failovers, and the
**recovery time in logical steps** — shared-clock ticks from the
leader kill to the replacement leader's first lock grant.

The claims under test:

* with a single replica, a permanent leader kill is a permanent site
  crash: the run cannot commit everything and the audit is incomplete
  (the honest unavailability baseline);
* with 3 or 5 replicas the run rides through the kill — every
  surviving transaction commits, the audit completes, and the
  committed history stays conflict-serializable;
* recovery time is finite and grows with group size (larger quorums,
  more vote traffic), making the availability/latency trade visible;
* a *healthy* replicated run on the memory transport is
  bit-deterministic: same seed, same history **and outcome**
  fingerprints (the outcome fingerprint also covers retry schedules).

Results land in ``results/BENCH_replica.json`` in the standard
envelope.  ``REPRO_BENCH_QUICK=1`` shrinks the sweep for smoke runs.

This harness outlived the other system benches (E14, E15 and E17 are
measured by ``benchmarks/suite`` now) because no suite workload kills
a leader yet; it stays until one does.
"""

import os

from repro.core.entity import DistributedDatabase
from repro.core.schedule import TransactionSystem
from repro.core.step import lock, unlock, update
from repro.core.transaction import Transaction
from repro.faults.plan import FaultPlan, SiteCrash
from repro.replica import run_replicated_sync
from repro.sim.analysis import serializable_from_site_orders

from _series import report, table, write_bench

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
ROUNDS = 3 if QUICK else 10
SEED = 7
#: The kill lands once the run is warm but with work still queued.
KILL_AT = 40
#: A killed leader answers nothing: the client timeout is what
#: triggers re-resolution, so failover latency scales with it.
REQUEST_TIMEOUT = 1.0
#: Failover aborts in-flight transactions; give them room to requeue.
MAX_RETRIES = 8
GROUP_SIZES = (1, 3, 5)


def transfer_pair():
    """E14's pair: two 2PL transactions over a two-site database,
    locking the entities in opposite orders (deadlock-capable)."""
    database = DistributedDatabase({"x": 1, "y": 2})

    def chain(name, entities):
        steps = []
        for entity in entities:
            steps += [lock(entity), update(entity)]
        steps += [unlock(entity) for entity in entities]
        order = list(zip(steps, steps[1:]))
        return Transaction(name, database, steps, order)

    return TransactionSystem([chain("T1", ["x", "y"]), chain("T2", ["y", "x"])])


def _throughput(transactions, seconds):
    return transactions / seconds if seconds else float("inf")


def test_replica_failover(benchmark):
    system = transfer_pair()
    plan = FaultPlan(site_crashes=(SiteCrash(site=1, at=KILL_AT),))
    samples = {}
    reports = {}

    for replicas in GROUP_SIZES:
        replica_report = run_replicated_sync(
            system,
            replicas=replicas,
            rounds=ROUNDS,
            seed=SEED,
            concurrency=4,
            max_retries=MAX_RETRIES,
            request_timeout=REQUEST_TIMEOUT,
            fault_plan=plan,
        )
        reports[replicas] = replica_report
        recovery = [
            entry.get("recovery_steps") for entry in replica_report.recovery
        ]
        samples[f"replicas-{replicas}"] = {
            "replicas": replicas,
            "transactions": replica_report.transactions,
            "committed": replica_report.committed,
            "seconds": round(replica_report.wall_seconds, 4),
            "txn_per_s": round(
                _throughput(
                    replica_report.committed, replica_report.wall_seconds
                ),
                1,
            ),
            "serializable": replica_report.serializable,
            "audit_complete": replica_report.audit_complete,
            "failovers": replica_report.failovers,
            "recovery_steps": recovery,
            "clock_end": replica_report.clock_end,
        }

    # Bit-determinism of a *healthy* replicated run (fault runs involve
    # wall-clock timeouts, so only the fault-free path is fingerprinted).
    healthy = [
        run_replicated_sync(system, replicas=3, rounds=ROUNDS, seed=SEED)
        for _ in range(2)
    ]
    deterministic = (
        healthy[0].history_fingerprint == healthy[1].history_fingerprint
        and healthy[0].outcome_fingerprint == healthy[1].outcome_fingerprint
    )

    benchmark(
        lambda: run_replicated_sync(system, replicas=3, rounds=1, seed=SEED)
    )

    rows = [
        (
            name,
            row["committed"],
            row["transactions"],
            row["failovers"],
            "/".join(
                str(s) if s is not None else "never"
                for s in row["recovery_steps"]
            )
            or "-",
            f"{row['txn_per_s']:.0f}",
        )
        for name, row in samples.items()
    ]
    report(
        "E16-replica-failover",
        f"transfer pair x {ROUNDS} rounds, permanent leader kill at "
        f"clock {KILL_AT}, 1/3/5 replicas per site",
        table(
            ["group", "committed", "txns", "failovers", "recovery", "txn/s"],
            rows,
        )
        + [
            f"healthy 3-replica determinism (history+outcome): {deterministic}",
        ],
    )
    write_bench(
        "BENCH_replica",
        params={
            "rounds": ROUNDS,
            "seed": SEED,
            "kill_at": KILL_AT,
            "request_timeout": REQUEST_TIMEOUT,
            "max_retries": MAX_RETRIES,
            "group_sizes": list(GROUP_SIZES),
            "sites": 2,
        },
        samples=samples,
    )

    # One replica = the paper's crash-vulnerable site: honest failure.
    assert reports[1].committed < reports[1].transactions
    assert not reports[1].audit_complete
    # Replicated groups ride through the permanent kill.
    for replicas in GROUP_SIZES[1:]:
        rep = reports[replicas]
        assert rep.committed == rep.transactions, replicas
        assert rep.audit_complete, replicas
        assert serializable_from_site_orders(rep.site_orders), replicas
        assert all(
            entry.get("recovery_steps") is not None for entry in rep.recovery
        ), replicas
    assert deterministic
